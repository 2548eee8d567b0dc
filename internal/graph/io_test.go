package graph

import (
	"bytes"
	"encoding/binary"
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
	// Truncated file.
	var buf bytes.Buffer
	g := tiny()
	g.WriteBinary(&buf)
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated file accepted")
	}
	// Corrupted adjacency (out-of-range neighbor).
	full := append([]byte(nil), buf.Bytes()...)
	full[len(full)-1] = 0x7f
	if _, err := ReadBinary(bytes.NewReader(full)); err == nil {
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
		"",              // empty
		"0\n",           // too few fields
		"a b\n",         // non-numeric
		"0 -1\n",        // negative id
		"0 1 notanum\n", // bad weight
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), false); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// TestReadBinaryDistrustsHeader: a header may announce any N and M;
// with no payload behind them ReadBinary must fail cleanly instead of
// allocating what the header asks for (M = 1<<62 used to panic in
// makeslice, M = 1<<34 to ask the runtime for 64 GB).
func TestReadBinaryDistrustsHeader(t *testing.T) {
	for _, c := range []struct {
		n uint32
		m uint64
	}{{3, 1 << 62}, {3, 1 << 34}, {1<<31 - 1, 0}, {1 << 31, 0}, {3, 1 << 63}} {
		hdr := binaryHeader(c.n, c.m, false)
		if _, err := ReadBinary(bytes.NewReader(hdr)); err == nil {
			t.Errorf("N=%d M=%d with no payload accepted", c.n, c.m)
		}
	}
}

func binaryHeader(n uint32, m uint64, weighted bool) []byte {
	hdr := append([]byte(nil), graphMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, n)
	hdr = binary.LittleEndian.AppendUint64(hdr, m)
	hdr = append(hdr, 0, 0, 0, 0, 0) // bytes 20..23 are unused, 24 is the weighted flag
	if weighted {
		hdr[24] = 1
	}
	return hdr
}

// FuzzReadBinary: whatever the bytes, ReadBinary returns an error or a
// graph that passes Validate and survives a write/read round trip — it
// never panics and never allocates by the header's say-so alone.
func FuzzReadBinary(f *testing.F) {
	for _, g := range []*Graph{tiny(), RoadGrid(4, 4, 9, 1)} {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		file := buf.Bytes()
		f.Add(file)
		// Truncated at, and just short of, the end of each section:
		// magic, sizes, OA, NA, (W).
		oaEnd := 25 + 8*(int(g.N)+1)
		for _, cut := range []int{0, 8, 24, 25, oaEnd - 1, oaEnd, oaEnd + 4*len(g.NA) - 1, oaEnd + 4*len(g.NA), len(file) - 1} {
			f.Add(file[:cut])
		}
		// The weighted flag flipped: weights promised but absent, or
		// present but unannounced.
		flipped := append([]byte(nil), file...)
		flipped[24] ^= 1
		f.Add(flipped)
	}
	f.Add(binaryHeader(3, 1<<62, false))
	f.Add(binaryHeader(3, 1<<34, true))
	f.Add(binaryHeader(1<<31-1, 0, false))
	f.Add(append(binaryHeader(2, 5, false), make([]byte, 24+20)...)) // OA all zero: does not span NA
	// OA = {0, 7, 3, ...}: monotone where Validate first looks, ends on
	// M, and walks off NA in between.
	overshoot := binaryHeader(8, 3, false)
	for _, off := range []uint64{0, 7, 3, 3, 3, 3, 3, 3, 3} {
		overshoot = binary.LittleEndian.AppendUint64(overshoot, off)
	}
	for _, v := range []uint32{1, 2, 3} {
		overshoot = binary.LittleEndian.AppendUint32(overshoot, v)
	}
	f.Add(overshoot)

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
