// Package graph implements the sparse-graph substrate the workloads run
// on: a CSR/CSC representation (Section II-A of the paper), an edge-list
// builder, transposition, degree statistics, and synthetic generators
// standing in for the six input graphs of Table III.
package graph

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Graph is a directed graph in Compressed Sparse Row form. For a graph
// built from out-edges it encodes outgoing neighbors (the paper's CSR);
// its transpose encodes incoming neighbors (the paper's CSC).
//
// OA is the Offset Array (length N+1) and NA the Neighbors Array
// (length M), matching the paper's terminology. W, when non-nil, holds
// per-edge weights parallel to NA (used by SSSP).
type Graph struct {
	N  int32   // number of vertices
	OA []int64 // row offsets, len N+1
	NA []int32 // column indices, len M
	W  []int32 // optional edge weights, len M or nil

	// mirrored marks a graph built from undirected edges (buildCSR):
	// it is its own transpose, so TransposeCached returns it as is.
	mirrored bool
	// fromCache marks a graph read from the graph cache (cache.go).
	fromCache bool
	transOnce sync.Once // guards trans (see TransposeCached)
	trans     *Graph
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int32 { return g.N }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int64 { return int64(len(g.NA)) }

// Degree returns the out-degree of vertex u.
func (g *Graph) Degree(u int32) int64 { return g.OA[u+1] - g.OA[u] }

// Neighbors returns the adjacency slice of vertex u.
func (g *Graph) Neighbors(u int32) []int32 { return g.NA[g.OA[u]:g.OA[u+1]] }

// Weights returns the edge-weight slice of vertex u; the graph must be
// weighted.
func (g *Graph) Weights(u int32) []int32 { return g.W[g.OA[u]:g.OA[u+1]] }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.W != nil }

// Edge is a directed edge with an optional weight.
type Edge struct {
	Src, Dst int32
	W        int32
}

// Build constructs a CSR graph over n vertices from an edge list,
// sorting adjacency lists and removing duplicate edges and self-loops.
// If weighted is true the first occurrence's weight is kept.
func Build(n int32, edges []Edge, weighted bool) *Graph {
	if !weighted {
		src, dst := make([]int32, len(edges)), make([]int32, len(edges))
		for i, e := range edges {
			src[i], dst[i] = e.Src, e.Dst
		}
		return buildCSR(n, src, dst, nil, false)
	}
	if n <= 0 {
		panic(panicVertexCount)
	}
	// Counting sort by source, then a per-list sort and dedupe.
	hs := newHistograms(n, int64(len(edges)))
	parts := chunks(int64(len(edges)), len(hs))
	off := make([]int64, n+1)
	hs.count(off, parts, func(lo, hi int64, h []int32) {
		for _, e := range edges[lo:hi] {
			if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
				panic(fmt.Sprintf(panicEdgeRange, e.Src, e.Dst, n))
			}
			if e.Src != e.Dst {
				h[e.Src]++
			}
		}
	})
	na, w := make([]int32, off[n]), make([]int32, off[n])
	hs.place(parts, func(lo, hi int64, h []int32) {
		for _, e := range edges[lo:hi] {
			if e.Src != e.Dst {
				p := h[e.Src]
				na[p], w[p] = e.Dst, e.W
				h[e.Src]++
			}
		}
	})
	oa := make([]int64, n+1)
	m := squeeze(off, oa, na, w, len(hs), false)
	return &Graph{N: n, OA: oa, NA: na[:m], W: w[:m]}
}

// Panic texts shared by the weighted and unweighted builds.
const panicVertexCount = "graph: Build with non-positive vertex count"
const panicEdgeRange = "graph: edge (%d,%d) out of range [0,%d)"

// collectAfter is the pass-1 bucket count (8 MiB of int32) from which
// buildCSR collects its garbage before returning: the bench and larger
// profiles' graphs, not the tests', the microbenchmarks' or Kron(12).
const collectAfter = 1 << 21

// buildCSR is the unweighted build: the CSR of the edges
// (src[i],dst[i]) — and of their reverses when mirrored — with sorted,
// duplicate- and self-loop-free adjacency lists, by two counting-sort
// passes and no comparison sort. spare, when long enough, becomes the
// neighbours array: generators pass the one allocation src and dst
// live in, which is dead once pass 1 has bucketed the edges.
func buildCSR(n int32, src, dst, spare []int32, mirrored bool) *Graph {
	if n <= 0 {
		panic(panicVertexCount)
	}
	hs := newHistograms(n, int64(len(src)))
	// Pass 1: bucket every edge by its destination — and, mirrored, its
	// reverse by its source — in arrival order.
	parts := chunks(int64(len(src)), len(hs))
	in := make([]int64, n+1) // in[v]:in[v+1] is v's bucket
	hs.count(in, parts, func(lo, hi int64, h []int32) {
		for i, s := range src[lo:hi] {
			d := dst[lo+int64(i)]
			if s < 0 || s >= n || d < 0 || d >= n {
				panic(fmt.Sprintf(panicEdgeRange, s, d, n))
			}
			if s != d {
				h[d]++
				if mirrored {
					h[s]++
				}
			}
		}
	})
	by := make([]int32, in[n])
	hs.place(parts, func(lo, hi int64, h []int32) {
		for i, s := range src[lo:hi] {
			d := dst[lo+int64(i)]
			if s == d {
				continue
			}
			by[h[d]] = s
			h[d]++
			if mirrored {
				by[h[s]] = d
				h[s]++
			}
		}
	})
	// Pass 2: walk the buckets in ascending destination order, appending
	// each destination to its sources' lists, which come out sorted.
	parts = cut(in, len(hs))
	out := make([]int64, n+1) // out[u]:out[u+1] is u's list
	hs.count(out, parts, func(lo, hi int64, h []int32) {
		for _, u := range by[in[lo]:in[hi]] {
			h[u]++
		}
	})
	na := spare
	if int64(len(na)) < out[n] {
		na = make([]int32, out[n])
	}
	hs.place(parts, func(lo, hi int64, h []int32) {
		for v := lo; v < hi; v++ {
			for _, u := range by[in[v]:in[v+1]] {
				na[h[u]] = int32(v)
				h[u]++
			}
		}
	})
	// Dedupe: duplicates are adjacent now. Pass 1's bucket starts are
	// spent, so the offsets reuse their array.
	oa := in
	m := squeeze(out, oa, na, nil, len(hs), true)
	// Pass 1's buckets and the histograms die here, about as much as the
	// graph returned. Left to the pacer they linger under the heap goal
	// the build's peak set (twice that peak) while the next build piles
	// up more; collecting a large build's garbage now sets the goal from
	// what survives.
	if len(by) >= collectAfter {
		runtime.GC()
	}
	return &Graph{N: n, OA: oa, NA: na[:m], mirrored: mirrored}
}

type edgeSorter struct {
	na []int32
	w  []int32
}

func (s *edgeSorter) Len() int           { return len(s.na) }
func (s *edgeSorter) Less(i, j int) bool { return s.na[i] < s.na[j] }
func (s *edgeSorter) Swap(i, j int) {
	s.na[i], s.na[j] = s.na[j], s.na[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// Transpose returns the reverse graph: the CSC view of a CSR graph. The
// paper's pull-style kernels (PR) iterate the CSC; T-OPT derives its
// next-reference information from the transpose.
func (g *Graph) Transpose() *Graph {
	hs := newHistograms(g.N, int64(len(g.NA)))
	parts := cut(g.OA, len(hs))
	oa := make([]int64, g.N+1)
	hs.count(oa, parts, func(lo, hi int64, h []int32) {
		for _, v := range g.NA[g.OA[lo]:g.OA[hi]] {
			h[v]++
		}
	})
	na := make([]int32, len(g.NA))
	var w []int32
	if g.Weighted() {
		w = make([]int32, len(g.NA))
	}
	// Sources are scanned in increasing order, so the transpose's lists
	// come out sorted.
	hs.place(parts, func(lo, hi int64, h []int32) {
		for u := lo; u < hi; u++ {
			for i := g.OA[u]; i < g.OA[u+1]; i++ {
				v := g.NA[i]
				p := h[v]
				na[p] = int32(u)
				if w != nil {
					w[p] = g.W[i]
				}
				h[v]++
			}
		}
	})
	return &Graph{N: g.N, OA: oa, NA: na, W: w}
}

// TransposeCached returns the transpose, memoizing it on the graph so
// repeated kernel preparations on the same input (multi-core mixes)
// don't recompute it. Safe for concurrent first use: the scheduler
// prepares pr/bfs instances on one graph from several goroutines.
func (g *Graph) TransposeCached() *Graph {
	if g.mirrored {
		return g
	}
	g.transOnce.Do(func() {
		t := g.Transpose()
		// Back-link, and mark t's own Once spent so it keeps the link.
		t.trans = g
		t.transOnce.Do(func() {})
		g.trans = t
	})
	return g.trans
}

// HasEdge reports whether edge (u,v) exists, by binary search.
func (g *Graph) HasEdge(u, v int32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Stats summarizes a graph's shape.
type Stats struct {
	Vertices  int32
	Edges     int64
	MaxDegree int64
	AvgDegree float64
	// Zeros counts vertices with no outgoing edges.
	Zeros int32
}

// ComputeStats scans the graph once and returns its Stats.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Vertices: g.N, Edges: g.NumEdges()}
	for u := int32(0); u < g.N; u++ {
		d := g.Degree(u)
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.Zeros++
		}
	}
	if g.N > 0 {
		s.AvgDegree = float64(s.Edges) / float64(g.N)
	}
	return s
}

// Validate checks structural invariants (monotone offsets, in-range and
// sorted adjacency, no self loops) and returns an error describing the
// first violation.
func (g *Graph) Validate() error {
	if int32(len(g.OA)) != g.N+1 {
		return fmt.Errorf("graph: OA length %d != N+1 (%d)", len(g.OA), g.N+1)
	}
	if g.OA[0] != 0 || g.OA[g.N] != int64(len(g.NA)) {
		return fmt.Errorf("graph: OA endpoints [%d,%d] do not span NA (%d)", g.OA[0], g.OA[g.N], len(g.NA))
	}
	if g.W != nil && len(g.W) != len(g.NA) {
		return fmt.Errorf("graph: weight array length %d != NA length %d", len(g.W), len(g.NA))
	}
	for u := int32(0); u < g.N; u++ {
		if g.OA[u] > g.OA[u+1] || g.OA[u+1] > int64(len(g.NA)) {
			return fmt.Errorf("graph: OA not monotone at %d", u)
		}
		var prev int32 = -1
		for i := g.OA[u]; i < g.OA[u+1]; i++ {
			v := g.NA[i]
			if v < 0 || v >= g.N {
				return fmt.Errorf("graph: neighbor %d of %d out of range", v, u)
			}
			if v == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			if v <= prev {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			prev = v
		}
	}
	return nil
}
