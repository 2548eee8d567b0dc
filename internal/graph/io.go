package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Graph files. The paper evaluates real graphs (Twitter, Friendster, ...)
// that are not redistributable here, but users who have them can load
// edge lists with ReadEdgeList, save the built CSR with WriteBinary
// (gmgraph writes .gmg files) and load it again with ReadBinary
// (examples/real-graph -gmg). The graph cache (cache.go) keeps its
// entries in the same format; a .gmg file is a file with an empty key:
//
//	magic | key length (u32) | key | N (u32) | M (u64) | flags (u8)
//	OA | NA | W (weighted only)   raw little-endian
//	CRC-32C (Castagnoli) of everything above
//
// Files of the format before the CRC (magic GMGRPH01) are refused.

var fileMagic = [8]byte{'G', 'M', 'G', 'C', 'A', 'C', 'H', '1'}

// Flag bits of a file's header.
const (
	flagWeighted = 1 << iota
	flagMirrored
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shapeLen is the size of a header's last three fields: N, M, flags.
const shapeLen = 4 + 8 + 1

// header renders a file's header: its key, then a graph's shape.
func header(key string, n int32, m int64, flags byte) []byte {
	h := make([]byte, 0, len(fileMagic)+4+len(key)+shapeLen)
	h = append(h, fileMagic[:]...)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(key)))
	h = append(h, key...)
	h = binary.LittleEndian.AppendUint32(h, uint32(n))
	h = binary.LittleEndian.AppendUint64(h, uint64(m))
	return append(h, flags)
}

// WriteBinary writes g as a .gmg file.
func (g *Graph) WriteBinary(w io.Writer) error { return g.write(w, "") }

// ReadBinary reads a .gmg file. The file comes from outside, so beyond
// its checksum the graph must pass Validate, and its mirrored flag is
// not believed: the transpose is built when asked for.
func ReadBinary(r io.Reader) (*Graph, error) {
	g, err := readGraph(r, "", -1)
	if err != nil {
		return nil, err
	}
	g.mirrored = false
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: corrupt file: %w", err)
	}
	return g, nil
}

// write writes g's file under key, straight from its arrays.
func (g *Graph) write(w io.Writer, key string) error {
	var flags byte
	if g.Weighted() {
		flags |= flagWeighted
	}
	if g.mirrored {
		flags |= flagMirrored
	}
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(w, crc)
	for _, b := range [][]byte{header(key, g.N, int64(len(g.NA)), flags), leBytes(g.OA, false), leBytes(g.NA, false), leBytes(g.W, false)} {
		if _, err := out.Write(b); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// readGraph reads a file that must hold key. size is the file's length
// when known (a cache entry's fstat), else -1. No header is trusted to
// allocate: with a size, it must add up to that size before each array
// is allocated at full length; without one, arrays grow only as bytes
// arrive, so a lying header ends in an error, not in a panic.
func readGraph(r io.Reader, key string, size int64) (*Graph, error) {
	crc := uint32(0)
	read := func(b []byte) error {
		_, err := io.ReadFull(r, b)
		crc = crc32.Update(crc, castagnoli, b)
		return err
	}
	want := header(key, 0, 0, 0)
	hdr := make([]byte, len(want))
	keyEnd := len(want) - shapeLen
	if err := read(hdr); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return nil, errors.New("graph: bad magic: not a graph file, or one from before graph files had a checksum (regenerate it with gmgraph)")
	}
	if !bytes.Equal(hdr[:keyEnd], want[:keyEnd]) {
		return nil, errors.New("graph: the file holds another key")
	}
	n := int32(binary.LittleEndian.Uint32(hdr[keyEnd:]))
	m := int64(binary.LittleEndian.Uint64(hdr[keyEnd+4:]))
	flags := hdr[keyEnd+12]
	if n < 0 || m < 0 || flags&^(flagWeighted|flagMirrored) != 0 {
		return nil, errors.New("graph: bad header")
	}
	arrays := 1 + int64(flags&flagWeighted)
	if size >= 0 && (m > size || size != int64(len(hdr))+8*(int64(n)+1)+4*m*arrays+4) {
		return nil, errors.New("graph: the header does not match the file's size")
	}
	g := &Graph{N: n, mirrored: flags&flagMirrored != 0}
	var err error
	g.OA, err = readArray[int64](read, int64(n)+1, size >= 0)
	if err == nil {
		g.NA, err = readArray[int32](read, m, size >= 0)
	}
	if err == nil && flags&flagWeighted != 0 {
		g.W, err = readArray[int32](read, m, size >= 0)
	}
	if err != nil {
		return nil, fmt.Errorf("graph: reading arrays: %w", err)
	}
	var sum [5]byte // the checksum, and room to see that nothing follows it
	if k, _ := io.ReadFull(r, sum[:]); k != 4 || binary.LittleEndian.Uint32(sum[:]) != crc {
		return nil, errors.New("graph: checksum missing, wrong or not at the end of the file")
	}
	return g, nil
}

// growFrom is how many values readArray first allocates unsized.
const growFrom = 8 << 10

// readArray reads count values. sized, the file's size has vouched for
// count: the array is allocated once and filled by one read. Otherwise
// it grows, doubling, only as values arrive, so a short or hostile
// stream costs memory in proportion to the bytes it really holds.
func readArray[T int32 | int64](read func([]byte) error, count int64, sized bool) ([]T, error) {
	first := count
	if !sized {
		first = min(count, growFrom)
	}
	out := make([]T, 0, first)
	for have := int64(0); have < count; have = int64(len(out)) {
		if have == int64(cap(out)) {
			out = slices.Grow(out, int(min(count-have, have)))
		}
		out = out[:min(count, int64(cap(out)))]
		if err := read(bytesOf(out[have:])); err != nil {
			return nil, err
		}
	}
	leBytes(out, true)
	return out, nil
}

// bytesOf is the memory of vals, viewed as bytes.
func bytesOf[T int32 | int64](vals []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*int(unsafe.Sizeof(vals[0])))
}

// littleEndian: on such a host, a file's arrays are their memory.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// leBytes is vals as a graph file holds them, little-endian. That is
// their memory on a little-endian host; a big-endian one swaps the
// bytes of each value, in vals itself when inPlace (an array just read,
// so the swap turns the file's order into memory's) or else in a copy.
func leBytes[T int32 | int64](vals []T, inPlace bool) []byte {
	b := bytesOf(vals)
	if littleEndian {
		return b
	}
	if !inPlace {
		b = bytes.Clone(b)
	}
	for i, w := 0, int(unsafe.Sizeof(vals[0])); i < len(b); i += w {
		slices.Reverse(b[i : i+w])
	}
	return b
}

// ReadEdgeList parses a whitespace-separated edge-list text stream
// ("src dst [weight]" per line; '#' and '%' lines are comments), the
// format SNAP and GAP distribute graphs in. Vertex IDs may be sparse;
// they are used as-is up to the maximum seen. If undirected is set,
// each edge is added in both directions.
func ReadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	var maxID int64
	weighted := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need at least 2 fields", lineNo)
		}
		src, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %w", lineNo, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %w", lineNo, err)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		// The vertex count, the largest id plus one, must fit an int32.
		if src == math.MaxInt32 || dst == math.MaxInt32 {
			return nil, fmt.Errorf("graph: line %d: vertex id %d too large", lineNo, math.MaxInt32)
		}
		var w int64 = 1
		if len(fields) >= 3 {
			w, err = strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			weighted = true
		}
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
		edges = append(edges, Edge{Src: int32(src), Dst: int32(dst), W: int32(w)})
		if undirected {
			edges = append(edges, Edge{Src: int32(dst), Dst: int32(src), W: int32(w)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return nil, errors.New("graph: empty edge list")
	}
	return Build(int32(maxID)+1, edges, weighted), nil
}
