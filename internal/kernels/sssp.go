package kernels

import (
	"graphmem/internal/cache"
	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// infDist marks unreached vertices.
const infDist = int64(1) << 62

// SSSP computes single-source shortest paths with δ-stepping (Meyer &
// Sanders), as GAP does: vertices are binned into distance buckets of
// width Delta; each bucket is relaxed to a fixed point (light edges
// re-enter the bucket) before moving to the next. The dist[NA[i]]
// relaxations are the irregular stream.
type SSSP struct {
	g    *graph.Graph // must be weighted
	dist []int64

	regOA, regNA, regW, regDist, regBucket *mem.Region

	// Delta is the bucket width; picked relative to the max weight.
	Delta int64
	// Sources to process in one Run.
	Sources []int32
}

// NewSSSP prepares δ-stepping on g; unweighted graphs get synthetic
// weights, mirroring how GAP runs SSSP on unweighted inputs.
func NewSSSP(g *graph.Graph, space *mem.Space) Instance {
	if !g.Weighted() {
		g = graph.AddUnitWeights(g, 64, 0xD2B5)
	}
	n := int64(g.N)
	s := &SSSP{
		g:     g,
		dist:  make([]int64, n),
		Delta: 16,
	}
	s.regOA = space.Alloc("sssp.oa", uint64(n+1)*8, 8, mem.ClassRegular)
	s.regNA = space.Alloc("sssp.na", uint64(g.NumEdges())*4, 4, mem.ClassStreaming)
	s.regW = space.Alloc("sssp.w", uint64(g.NumEdges())*4, 4, mem.ClassStreaming)
	s.regDist = space.Alloc("sssp.dist", uint64(n)*4, 4, mem.ClassIrregular)
	s.regBucket = space.Alloc("sssp.bucket", uint64(n)*4, 4, mem.ClassRegular)
	s.Sources = defaultSources(g, 2)
	return s
}

// IrregularRegions implements Instance.
func (s *SSSP) IrregularRegions() []*mem.Region { return []*mem.Region{s.regDist} }

// Oracle implements Instance.
func (s *SSSP) Oracle() cache.NextUseOracle {
	return NewTransposeOracle(s.regDist, s.g.NA, s.g.N)
}

// Dist returns the distances from the last source processed.
func (s *SSSP) Dist() []int64 { return s.dist }

// Unreachable is the distance reported for unreachable vertices.
const Unreachable = infDist

// Run implements Instance.
func (s *SSSP) Run(tr *trace.Tracer) {
	g := s.g
	oa := newTraced(tr, s.regOA)
	na := newTraced(tr, s.regNA)
	wt := newTraced(tr, s.regW)
	dist := newTraced(tr, s.regDist)
	bucket := newTraced(tr, s.regBucket)

	pcBkt := tr.Site("sssp.load_bucket")
	pcDistU := tr.Site("sssp.load_dist_u")
	pcOA := tr.Site("sssp.load_oa")
	pcNA := tr.Site("sssp.load_na")
	pcW := tr.Site("sssp.load_w")
	pcDistV := tr.Site("sssp.load_dist_v")
	pcRelax := tr.Site("sssp.store_dist")
	pcPush := tr.Site("sssp.push_bucket")

	for _, src := range s.Sources {
		if tr.Done() {
			return
		}
		for i := range s.dist {
			s.dist[i] = infDist
		}
		s.dist[src] = 0

		buckets := map[int64][]int32{0: {src}}
		var edgesDone uint64
		var pushCount int64
		n := int64(g.N)
		for bi := int64(0); !tr.Done(); bi++ {
			frontier, ok := buckets[bi]
			if !ok {
				// Find the next non-empty bucket, or finish.
				next := int64(-1)
				for k := range buckets {
					if k > bi && (next < 0 || k < next) {
						next = k
					}
				}
				if next < 0 {
					break
				}
				bi = next
				frontier = buckets[bi]
			}
			delete(buckets, bi)
			// Relax the bucket to a fixed point: light-edge relaxations
			// may re-insert vertices into the current bucket.
			for len(frontier) > 0 && !tr.Done() {
				var reentry []int32
				for j, u := range frontier {
					if tr.Done() {
						return
					}
					bSeq := bucket.load(pcBkt, int64(j), trace.NoDep)
					duSeq := dist.load(pcDistU, int64(u), bSeq)
					tr.Exec(2)
					du := s.dist[u]
					if du/s.Delta < bi {
						continue // settled in an earlier bucket
					}
					oaSeq := oa.load(pcOA, int64(u)+1, duSeq)
					lo, hi := g.OA[u], g.OA[u+1]
					for i := lo; i < hi; i++ {
						// Value-annotated: IMP learns the dist[NA[i]] relax.
						naSeq := na.loadv(pcNA, i, oaSeq, uint64(g.NA[i]))
						wt.load(pcW, i, trace.NoDep)
						v := g.NA[i]
						w := int64(g.W[i])
						dist.load(pcDistV, int64(v), naSeq)
						tr.Exec(3)
						nd := du + w
						if nd < s.dist[v] {
							s.dist[v] = nd
							dist.store(pcRelax, int64(v), naSeq)
							tb := nd / s.Delta
							bucket.store(pcPush, pushCount%n, trace.NoDep)
							pushCount++
							tr.Exec(2)
							if tb == bi {
								reentry = append(reentry, v)
							} else {
								buckets[tb] = append(buckets[tb], v)
							}
						}
					}
					edgesDone += uint64(hi - lo)
					tr.Progress(edgesDone)
				}
				frontier = reentry
			}
		}
	}
}
