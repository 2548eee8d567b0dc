package graph

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// The paper evaluates six input graphs (Table III): Web, Road, Twitter,
// Kron, Urand and Friendster. Real multi-gigabyte graphs are not
// available offline, so this file provides synthetic generators whose
// degree distribution and vertex-ID locality match each graph's family:
//
//	Web        — power-law, strong ID locality (crawl order clusters links)
//	Road       — near-planar grid, tiny degrees, huge diameter, weighted
//	Twitter    — power-law (preferential attachment), weak locality
//	Kron       — Graph500 Kronecker/R-MAT (a,b,c,d = .57,.19,.19,.05)
//	Urand      — Erdős–Rényi uniform random
//	Friendster — heavy power-law, shuffled IDs (worst locality)
//
// DESIGN.md documents this substitution. Every generator is fully
// deterministic given its seed.

// pcg makes math/rand/v2's draws over a PCG source — the same Uint64
// calls in the same order as Rand's methods — without an interface call
// per draw. Goldens, ci/sample_reference.json and the result store
// depend on every graph's exact bytes, so the streams are pinned
// (TestGraphFingerprints); only the work around the draws may change.
// redraws counts the extra draws below's rejections took, so a chunk of
// a parallel stream (par.go) knows how far it really went.
type pcg struct {
	rand.PCG
	redraws uint64
}

func rng(seed uint64) *pcg { return &pcg{PCG: *rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)} }

// Float64 is Rand.Float64: a uniform 53-bit integer scaled into [0,1).
func (r *pcg) Float64() float64 { return float64(r.Uint64()<<11>>11) / (1 << 53) }

// below is Rand.Int64N, IntN and Int32N (one uint64n behind all three):
// uniform in [0,n) by multiply-and-reject.
func (r *pcg) below(n int64) int64 {
	if n <= 0 {
		panic("graph: random bound must be positive")
	}
	un := uint64(n)
	if un&(un-1) == 0 {
		return int64(r.Uint64() & (un - 1))
	}
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		for thresh := -un % un; lo < thresh; {
			hi, lo = bits.Mul64(r.Uint64(), un)
			r.redraws++
		}
	}
	return int64(hi)
}

// Urand generates an Erdős–Rényi-style uniform random undirected graph
// with n vertices and approximately m undirected edges (2m directed).
func Urand(n int32, m int64, seed uint64) *Graph {
	return cached(2*m, func() *Graph { return urand(n, m, seed) }, "urand", n, m, seed)
}

func urand(n int32, m int64, seed uint64) *Graph {
	src, dst, buf := edgeStream(rng(seed), m, 2, func(r *pcg, src, dst []int32) (int, uint64) {
		kept := 0
		for range len(src) {
			u := int32(r.below(int64(n)))
			v := int32(r.below(int64(n)))
			if u != v {
				src[kept], dst[kept] = u, v
				kept++
			}
		}
		return kept, 2*uint64(len(src)) + r.redraws
	})
	return buildCSR(n, src, dst, buf, true)
}

// Kron generates a Graph500-style Kronecker (R-MAT) undirected graph
// with 2^scale vertices and approximately edgeFactor*2^scale undirected
// edges, using the canonical initiator (0.57, 0.19, 0.19, 0.05).
func Kron(scale int, edgeFactor int64, seed uint64) *Graph {
	return cached(2*edgeFactor<<scale, func() *Graph {
		return rmat(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
	}, "kron", scale, edgeFactor, seed)
}

// rmatThreshold returns T such that, for a 53-bit draw k, k < T is
// Float64() < p: scaling both sides of float64(k)/(1<<53) < p by 2^53
// is exact, and an integer is below a real iff it is below its ceiling.
func rmatThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// rmat samples edgeFactor*2^scale undirected edges from an R-MAT
// distribution over 2^scale vertices: one draw per bit picks the
// quadrant (a: neither bit set, b: v's, c: u's, d: both). IDs are not
// permuted afterwards, so the low ones are the hubs.
func rmat(scale int, edgeFactor int64, a, b, c float64, seed uint64) *Graph {
	n := int32(1) << scale
	ta, tab, tabc := rmatThreshold(a), rmatThreshold(a+b), rmatThreshold(a+b+c)
	src, dst, buf := edgeStream(rng(seed), edgeFactor*int64(n), uint64(scale), func(r *pcg, src, dst []int32) (int, uint64) {
		kept := 0
		for range len(src) {
			var u, v uint64
			for range scale {
				k := r.Uint64() << 11 >> 11
				// (T-1-k)>>63 is 1 iff k >= T; the quadrants nest, so u's
				// bit is "past a+b" and v's the parity of the three tests.
				geA, geAB, geABC := (ta-1-k)>>63, (tab-1-k)>>63, (tabc-1-k)>>63
				u = u<<1 | geAB
				v = v<<1 | (geA ^ geAB ^ geABC)
			}
			if u != v {
				src[kept], dst[kept] = int32(u), int32(v)
				kept++
			}
		}
		return kept, uint64(len(src)) * uint64(scale)
	})
	return buildCSR(n, src, dst, buf, true)
}

// PowerLaw generates a preferential-attachment (Barabási–Albert style)
// undirected graph: each new vertex attaches outDeg edges, each endpoint
// chosen either uniformly (with probability uniform) or proportionally
// to degree by copying the endpoint of a previously generated edge. When
// shuffle is true the vertex IDs are randomly permuted afterwards,
// destroying any ID locality (the Friendster regime); otherwise the
// generation order itself provides mild locality (the Twitter regime).
func PowerLaw(n int32, outDeg int, uniform float64, shuffle bool, seed uint64) *Graph {
	return cached(2*int64(n)*int64(outDeg), func() *Graph {
		return powerLaw(n, outDeg, uniform, shuffle, seed)
	}, "powerlaw", n, outDeg, uniform, shuffle, seed)
}

func powerLaw(n int32, outDeg int, uniform float64, shuffle bool, seed uint64) *Graph {
	r := rng(seed)
	m := int64(n) * int64(outDeg)
	// One allocation for both endpoint lists, reused for the CSR.
	buf := make([]int32, 2*m)
	src, dst := buf[:0:m], buf[m:m]
	// Seed clique over the first outDeg+1 vertices.
	seedN := min(int32(outDeg+1), n)
	for u := int32(0); u < seedN; u++ {
		for v := u + 1; v < seedN; v++ {
			src, dst = append(src, u), append(dst, v)
		}
	}
	for u := seedN; u < n; u++ {
		for k := 0; k < outDeg; k++ {
			var v int32
			if r.Float64() < uniform || len(src) == 0 {
				v = int32(r.below(int64(u)))
			} else if j := r.below(2 * int64(len(src))); j&1 == 0 {
				// Copy an endpoint of an existing edge: endpoint choice
				// is degree-proportional. j indexes the edges as if each
				// were listed in both directions, (u,v) then (v,u).
				v = dst[j/2]
			} else {
				v = src[j/2]
			}
			if v != u {
				src, dst = append(src, u), append(dst, v)
			}
		}
	}
	if shuffle {
		perm := rand.New(&r.PCG).Perm(int(n))
		parts := chunks(int64(len(src)), workers(int64(len(src)), 0))
		parallel(len(parts)-1, func(i int) {
			for j := parts[i]; j < parts[i+1]; j++ {
				src[j], dst[j] = int32(perm[src[j]]), int32(perm[dst[j]])
			}
		})
	}
	return buildCSR(n, src, dst, buf, true)
}

// WebLike generates a directed power-law graph with strong vertex-ID
// locality: vertices are grouped into contiguous "hosts" and most links
// stay within a host or point to nearby hosts, mimicking crawl-ordered
// web graphs. Degrees follow a heavy tail via degree-proportional copy.
func WebLike(n int32, avgDeg int, seed uint64) *Graph {
	return cached(int64(n)*int64(avgDeg), func() *Graph { return webLike(n, avgDeg, seed) }, "web", n, avgDeg, seed)
}

func webLike(n int32, avgDeg int, seed uint64) *Graph {
	r := rng(seed)
	hostSize := int32(256)
	m := int64(n) * int64(avgDeg)
	src, dst := make([]int32, 0, m), make([]int32, 0, m)
	for u := int32(0); u < n; u++ {
		deg := 1 + int(r.below(int64(2*avgDeg-1))) // mean ~avgDeg
		host := u / hostSize
		for k := 0; k < deg; k++ {
			var v int32
			switch p := r.Float64(); {
			case p < 0.70:
				// Intra-host link: excellent locality.
				v = host*hostSize + int32(r.below(int64(hostSize)))
			case p < 0.90:
				// Near-host link within a 16-host neighbourhood.
				base := (host - 8) * hostSize
				if base < 0 {
					base = 0
				}
				span := int64(16 * hostSize)
				if int64(base)+span > int64(n) {
					span = int64(n) - int64(base)
				}
				v = base + int32(r.below(span))
			default:
				// Global link, degree-proportional when possible to
				// create hub pages.
				if len(dst) > 0 && r.Float64() < 0.5 {
					v = dst[r.below(int64(len(dst)))]
				} else {
					v = int32(r.below(int64(n)))
				}
			}
			if v >= n {
				v = n - 1
			}
			if v != u {
				src, dst = append(src, u), append(dst, v)
			}
		}
	}
	return buildCSR(n, src, dst, nil, false)
}

// RoadGrid generates a weighted undirected graph shaped like a road
// network: a width×height 4-neighbour lattice with a small fraction of
// diagonal shortcuts removed/added for irregularity. Edge weights are
// uniform in [1, maxW].
func RoadGrid(width, height int32, maxW int32, seed uint64) *Graph {
	return cached(4*int64(width)*int64(height), func() *Graph {
		return roadGrid(width, height, maxW, seed)
	}, "road", width, height, maxW, seed)
}

func roadGrid(width, height int32, maxW int32, seed uint64) *Graph {
	r := rng(seed)
	n := width * height
	edges := make([]Edge, 0, int64(n)*4)
	id := func(x, y int32) int32 { return y*width + x }
	addBoth := func(u, v int32) {
		w := 1 + int32(r.below(int64(maxW)))
		edges = append(edges, Edge{Src: u, Dst: v, W: w}, Edge{Src: v, Dst: u, W: w})
	}
	for y := int32(0); y < height; y++ {
		for x := int32(0); x < width; x++ {
			u := id(x, y)
			// Drop ~3% of lattice edges to create irregular detours.
			if x+1 < width && r.Float64() > 0.03 {
				addBoth(u, id(x+1, y))
			}
			if y+1 < height && r.Float64() > 0.03 {
				addBoth(u, id(x, y+1))
			}
			// Rare longer-range "highway" edge.
			if r.Float64() < 0.005 {
				dx := int32(r.below(16)) - 8
				dy := int32(r.below(16)) - 8
				nx, ny := x+dx, y+dy
				if nx >= 0 && nx < width && ny >= 0 && ny < height && id(nx, ny) != u {
					addBoth(u, id(nx, ny))
				}
			}
		}
	}
	return Build(n, edges, true)
}

// AddUnitWeights returns a weighted copy of g with all weights drawn
// uniformly from [1, maxW]; used to run SSSP on unweighted inputs, as
// GAP does.
func AddUnitWeights(g *Graph, maxW int32, seed uint64) *Graph {
	w := make([]int32, len(g.NA))
	bounds := chunks(int64(len(w)), workers(int64(len(w)), 0))
	stream(rng(seed), bounds, 1, func(c int, r *pcg) uint64 {
		seg := w[bounds[c]:bounds[c+1]]
		for i := range seg {
			seg[i] = 1 + int32(r.below(int64(maxW)))
		}
		return uint64(len(seg)) + r.redraws
	})
	return &Graph{N: g.N, OA: g.OA, NA: g.NA, W: w}
}

// DegreeHistogram returns counts of out-degrees bucketed by power of
// two: bucket i counts vertices with degree in [2^i, 2^(i+1)). Bucket 0
// includes degree 0 and 1.
func DegreeHistogram(g *Graph) []int64 {
	var buckets []int64
	for u := int32(0); u < g.N; u++ {
		d := g.Degree(u)
		b := 0
		if d > 1 {
			b = int(math.Log2(float64(d)))
		}
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	return buckets
}
