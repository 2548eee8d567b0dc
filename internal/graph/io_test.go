package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func graphsEqual(a, b *Graph) bool {
	if a.N != b.N || len(a.NA) != len(b.NA) || a.Weighted() != b.Weighted() {
		return false
	}
	for i := range a.OA {
		if a.OA[i] != b.OA[i] {
			return false
		}
	}
	for i := range a.NA {
		if a.NA[i] != b.NA[i] {
			return false
		}
	}
	if a.Weighted() {
		for i := range a.W {
			if a.W[i] != b.W[i] {
				return false
			}
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{
		tiny(),
		Kron(9, 8, 5),
		RoadGrid(12, 12, 30, 6), // weighted
	} {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, got) {
			t.Fatal("round trip changed the graph")
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := Urand(200, 700, seed)
		var buf bytes.Buffer
		if g.WriteBinary(&buf) != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		return err == nil && graphsEqual(g, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("hello world, not a graph"))); err == nil {
		t.Error("bad magic accepted")
	}
	// A file of the format before the checksum is refused with a hint.
	old := append([]byte("GMGRPH01"), make([]byte, 17)...)
	if _, err := ReadBinary(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Errorf("a GMGRPH01 file: %v, want an error that says to regenerate it", err)
	}
	// Truncated file.
	var buf bytes.Buffer
	g := tiny()
	g.WriteBinary(&buf)
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated file accepted")
	}
	// Corrupted adjacency (out-of-range neighbor) under a valid checksum.
	full := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(full[len(full)-8:], 0x7f)
	if _, err := ReadBinary(bytes.NewReader(resealed(full))); err == nil {
		t.Error("corrupt adjacency accepted")
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment line
% another comment
0 1
1 2
2 0

3 1
`
	g, err := ReadEdgeList(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.NumEdges() != 4 {
		t.Fatalf("N=%d M=%d", g.N, g.NumEdges())
	}
	if g.Weighted() {
		t.Error("unweighted list produced weights")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 1) {
		t.Error("edges missing")
	}
}

func TestReadEdgeListWeightedUndirected(t *testing.T) {
	in := "0 1 5\n1 2 7\n"
	g, err := ReadEdgeList(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("M=%d, want 4 (symmetrized)", g.NumEdges())
	}
	if !g.Weighted() {
		t.Fatal("weights dropped")
	}
	adj, ws := g.Neighbors(1), g.Weights(1)
	want := map[int32]int32{0: 5, 2: 7}
	for i, v := range adj {
		if ws[i] != want[v] {
			t.Errorf("weight(1,%d) = %d, want %d", v, ws[i], want[v])
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"0\n",            // too few fields
		"a b\n",          // non-numeric
		"0 -1\n",         // negative id
		"0 1 notanum\n",  // bad weight
		"0 2147483647\n", // the vertex count would overflow int32
		"2147483647 0 3\n",
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), false); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// TestReadBinaryDistrustsHeader: a header may announce any N and M;
// with no arrays behind them ReadBinary must fail cleanly instead of
// allocating what the header asks for (M = 1<<62 would panic in
// makeslice, M = 1<<34 ask the runtime for 64 GB). A small N gets its
// OA, so the reader reaches NA.
func TestReadBinaryDistrustsHeader(t *testing.T) {
	for _, c := range []struct {
		n uint32
		m uint64
	}{{3, 1 << 62}, {3, 1 << 34}, {1<<31 - 1, 0}, {1 << 31, 0}, {3, 1 << 63}} {
		if _, err := ReadBinary(bytes.NewReader(headerAndOA(c.n, c.m))); err == nil {
			t.Errorf("N=%d M=%d with no arrays accepted", c.n, c.m)
		}
	}
}

// headerAndOA is a .gmg header announcing n and m, followed by an
// all-zero OA when n is small.
func headerAndOA(n uint32, m uint64) []byte {
	file := binaryHeader(n, m, false)
	if n < 1<<10 {
		file = append(file, make([]byte, 8*(n+1))...)
	}
	return file
}

// binaryHeader is a .gmg header (an empty key) announcing n and m.
func binaryHeader(n uint32, m uint64, weighted bool) []byte {
	var flags byte
	if weighted {
		flags = flagWeighted
	}
	return header("", int32(n), int64(m), flags)
}

// FuzzReadBinary: whatever the bytes, ReadBinary returns an error or a
// graph that passes Validate and survives a write/read round trip — it
// never panics and never allocates by the header's say-so alone.
func FuzzReadBinary(f *testing.F) {
	hdrLen := len(binaryHeader(0, 0, false))
	for _, g := range []*Graph{tiny(), RoadGrid(4, 4, 9, 1)} {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		file := buf.Bytes()
		f.Add(file)
		// Truncated at, and just short of, the end of each section:
		// magic, sizes, OA, NA, (W).
		oaEnd := hdrLen + 8*(int(g.N)+1)
		for _, cut := range []int{0, 8, hdrLen - 1, hdrLen, oaEnd - 1, oaEnd, oaEnd + 4*len(g.NA) - 1, oaEnd + 4*len(g.NA), len(file) - 1} {
			f.Add(file[:cut])
		}
		// The weighted flag flipped under a valid checksum: weights
		// promised but absent, or present but unannounced.
		flipped := append([]byte(nil), file...)
		flipped[hdrLen-1] ^= flagWeighted
		f.Add(resealed(flipped))
	}
	f.Add(headerAndOA(3, 1<<62))
	f.Add(append(binaryHeader(3, 1<<34, true), make([]byte, 32)...))
	f.Add(headerAndOA(1<<31-1, 0))
	f.Add(resealed(append(binaryHeader(2, 5, false), make([]byte, 24+20+4)...))) // OA all zero: does not span NA (+4: the checksum)
	// OA = {0, 7, 3, ...}: monotone where Validate first looks, ends on
	// M, and walks off NA in between.
	overshoot := binaryHeader(8, 3, false)
	for _, off := range []uint64{0, 7, 3, 3, 3, 3, 3, 3, 3} {
		overshoot = binary.LittleEndian.AppendUint64(overshoot, off)
	}
	for _, v := range []uint32{1, 2, 3, 0} { // 0: room for the checksum
		overshoot = binary.LittleEndian.AppendUint32(overshoot, v)
	}
	f.Add(resealed(overshoot))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadBinary returned an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if again, err := ReadBinary(&buf); err != nil || !graphsEqual(g, again) {
			t.Fatalf("accepted graph does not survive a round trip: %v", err)
		}
	})
}

// FuzzReadEdgeList: whatever the text, ReadEdgeList returns an error or
// a graph that passes Validate — it never panics.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range []string{
		"0 1\n1 2\n2 0\n",
		"# c\n% c\n0 1 5\n1 2 7\n",
		"3 3\n0 0\n",
		"0 2147483647\n",
		"0 65536 1\n",
		"0 -1\n",
		"a b\n",
		"",
	} {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, text string, undirected bool) {
		// A valid id allocates a vertex array in proportion to it:
		// skip the large ones, not the out-of-range ones.
		for _, tok := range strings.Fields(text) {
			if id, err := strconv.ParseInt(tok, 10, 64); err == nil && id > 1<<16 && id < math.MaxInt32 {
				t.Skip("vertex id too large to allocate for")
			}
		}
		g, err := ReadEdgeList(strings.NewReader(text), undirected)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadEdgeList returned an invalid graph: %v", err)
		}
	})
}
