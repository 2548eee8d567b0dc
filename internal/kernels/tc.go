package kernels

import (
	"graphmem/internal/cache"
	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// TC counts triangles by ordered adjacency-list intersection: for every
// edge (u,v) with u < v, the sorted neighbor lists of u and v are
// merge-intersected counting common neighbors w > v, so each triangle
// is counted exactly once. The second list's start position is
// data-dependent (it comes from the NA value just loaded), which makes
// the inner intersection loads the kernel's irregular stream.
type TC struct {
	g *graph.Graph

	regOA, regNA *mem.Region

	// Count is the triangle count from the last Run.
	Count int64
}

// NewTC prepares triangle counting on g (must be symmetric, as GAP
// requires).
func NewTC(g *graph.Graph, space *mem.Space) Instance {
	n := int64(g.N)
	t := &TC{g: g}
	t.regOA = space.Alloc("tc.oa", uint64(n+1)*8, 8, mem.ClassRegular)
	t.regNA = space.Alloc("tc.na", uint64(g.NumEdges())*4, 4, mem.ClassIrregular)
	return t
}

// IrregularRegions implements Instance: TC's irregular structure is the
// neighbors array itself, gathered at data-dependent offsets during
// intersections.
func (t *TC) IrregularRegions() []*mem.Region { return []*mem.Region{t.regNA} }

// Oracle implements Instance: T-OPT targets per-vertex property arrays;
// TC has none, so the policy degrades to its default ranks.
func (t *TC) Oracle() cache.NextUseOracle { return nil }

// Run implements Instance.
func (t *TC) Run(tr *trace.Tracer) {
	g := t.g
	n := int64(g.N)
	oa := newTraced(tr, t.regOA)
	na := newTraced(tr, t.regNA)

	pcOA := tr.Site("tc.load_oa")
	pcNAOuter := tr.Site("tc.load_na_outer")
	pcOAV := tr.Site("tc.load_oa_v")
	pcNAU := tr.Site("tc.isect.load_na_u")
	pcNAV := tr.Site("tc.isect.load_na_v")

	t.Count = 0
	var edgesDone uint64
	for u := int64(0); u < n; u++ {
		if tr.Done() {
			return
		}
		oa.load(pcOA, u+1, trace.NoDep)
		tr.Exec(2)
		lo, hi := g.OA[u], g.OA[u+1]
		for i := lo; i < hi; i++ {
			naSeq := na.load(pcNAOuter, i, trace.NoDep)
			v := int64(g.NA[i])
			tr.Exec(2)
			if v <= u {
				continue
			}
			// Intersect adj(u) and adj(v), counting members > v. The
			// OA[v] loads depend on the NA value just read.
			oaSeq := oa.load(pcOAV, v+1, naSeq)
			pi, pj := i+1, g.OA[v]
			hj := g.OA[v+1]
			depI, depJ := naSeq, oaSeq
			if pi < hi {
				depI = na.load(pcNAU, pi, depI)
			}
			if pj < hj {
				depJ = na.load(pcNAV, pj, depJ)
			}
			for pi < hi && pj < hj {
				if tr.Done() {
					return
				}
				a := int64(g.NA[pi])
				b := int64(g.NA[pj])
				switch {
				case a < b:
					pi++
					if pi < hi {
						depI = na.load(pcNAU, pi, depI)
					}
				case b < a:
					pj++
					if pj < hj {
						depJ = na.load(pcNAV, pj, depJ)
					}
				default:
					if a > v {
						t.Count++
					}
					pi++
					pj++
					if pi < hi {
						depI = na.load(pcNAU, pi, depI)
					}
					if pj < hj {
						depJ = na.load(pcNAV, pj, depJ)
					}
				}
				tr.Exec(2)
			}
		}
		edgesDone += uint64(hi - lo)
		tr.Progress(edgesDone)
	}
}
