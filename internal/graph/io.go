package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Graph I/O: the paper evaluates real graphs (Twitter, Friendster, ...)
// that are not redistributable here, but users who have them can load
// edge lists with ReadEdgeList and cache the built CSR with
// WriteBinary/ReadBinary, then simulate them (examples/real-graph).

var graphMagic = [8]byte{'G', 'M', 'G', 'R', 'P', 'H', '0', '1'}

// WriteBinary serializes the CSR graph in a compact little-endian
// format (magic, N, M, weighted flag, OA, NA, optional W).
func (g *Graph) WriteBinary(w io.Writer) error {
	var hdr [25]byte
	copy(hdr[:], graphMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], uint32(g.N))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(g.NA)))
	if g.Weighted() {
		hdr[24] = 1
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeLE(w, g.OA); err != nil {
		return err
	}
	if err := writeLE(w, g.NA); err != nil {
		return err
	}
	return writeLE(w, g.W) // nil when unweighted
}

// ReadBinary deserializes a graph written by WriteBinary and validates
// its structure.
func ReadBinary(r io.Reader) (*Graph, error) {
	var hdr [25]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if [8]byte(hdr[:8]) != graphMagic {
		return nil, errors.New("graph: bad magic, not a gmgraph file")
	}
	n := int32(binary.LittleEndian.Uint32(hdr[8:]))
	m := int64(binary.LittleEndian.Uint64(hdr[12:]))
	weighted := hdr[24] == 1
	if n < 0 || m < 0 {
		return nil, errors.New("graph: negative sizes")
	}
	g := &Graph{N: n}
	var err error
	if g.OA, err = readLE[int64](r, int64(n)+1); err != nil {
		return nil, fmt.Errorf("graph: reading OA: %w", err)
	}
	if g.NA, err = readLE[int32](r, m); err != nil {
		return nil, fmt.Errorf("graph: reading NA: %w", err)
	}
	if weighted {
		if g.W, err = readLE[int32](r, m); err != nil {
			return nil, fmt.Errorf("graph: reading W: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: corrupt file: %w", err)
	}
	return g, nil
}

// leChunk is how many values readLE and writeLE move per call: 32 or
// 64 KiB of file, so neither side needs a bufio layer.
const leChunk = 8 << 10

func writeLE[T int32 | int64](w io.Writer, vals []T) error {
	for len(vals) > 0 {
		k := min(len(vals), leChunk)
		if err := binary.Write(w, binary.LittleEndian, vals[:k]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// readLE decodes count little-endian values. The header that announced
// count is not trusted: the slice grows (doubling) only as data
// arrives, so a short or hostile stream costs memory in proportion to
// the bytes it really holds and ends in an error, not in a panic.
func readLE[T int32 | int64](r io.Reader, count int64) ([]T, error) {
	out := make([]T, 0, min(count, leChunk))
	for have := int64(0); have < count; have = int64(len(out)) {
		if have == int64(cap(out)) {
			out = slices.Grow(out, int(min(count-have, have)))
		}
		out = out[:min(count, have+leChunk, int64(cap(out)))]
		if err := binary.Read(r, binary.LittleEndian, out[have:]); err != nil {
			return nil, err
		}
	}
	return out, nil
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
