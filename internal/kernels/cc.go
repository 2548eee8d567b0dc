package kernels

import (
	"graphmem/internal/cache"
	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// CC computes connected components with the Shiloach-Vishkin algorithm
// (the GAP reference the paper cites): alternating hook phases over all
// edges — with the double-indirect comp[comp[v]] accesses that make CC
// one of the most irregular kernels — and pointer-jumping compress
// phases, until a fixed point.
type CC struct {
	g    *graph.Graph
	comp []int32

	regOA, regNA, regComp *mem.Region

	// Iterations records hook+compress rounds of the last Run.
	Iterations int
}

// NewCC prepares connected components on g (treated as undirected; the
// generators emit symmetric graphs for CC inputs, as GAP does).
func NewCC(g *graph.Graph, space *mem.Space) Instance {
	n := int64(g.N)
	c := &CC{g: g, comp: make([]int32, n)}
	c.regOA = space.Alloc("cc.oa", uint64(n+1)*8, 8, mem.ClassRegular)
	c.regNA = space.Alloc("cc.na", uint64(g.NumEdges())*4, 4, mem.ClassStreaming)
	c.regComp = space.Alloc("cc.comp", uint64(n)*4, 4, mem.ClassIrregular)
	return c
}

// IrregularRegions implements Instance.
func (c *CC) IrregularRegions() []*mem.Region { return []*mem.Region{c.regComp} }

// Oracle implements Instance.
func (c *CC) Oracle() cache.NextUseOracle {
	return NewTransposeOracle(c.regComp, c.g.NA, c.g.N)
}

// Components returns the component label array of the last Run.
func (c *CC) Components() []int32 { return c.comp }

// Run implements Instance.
func (c *CC) Run(tr *trace.Tracer) {
	g := c.g
	n := int64(g.N)
	oa := newTraced(tr, c.regOA)
	na := newTraced(tr, c.regNA)
	comp := newTraced(tr, c.regComp)

	pcOA := tr.Site("cc.hook.load_oa")
	pcNA := tr.Site("cc.hook.load_na")
	pcCompU := tr.Site("cc.hook.load_comp_u")
	pcCompV := tr.Site("cc.hook.load_comp_v")
	pcHookChk := tr.Site("cc.hook.load_comp_comp")
	pcHookSt := tr.Site("cc.hook.store_comp")
	pcJumpLd := tr.Site("cc.compress.load_chain")
	pcJumpSt := tr.Site("cc.compress.store_comp")

	for v := range c.comp {
		c.comp[v] = int32(v)
	}

	c.Iterations = 0
	var edgesDone uint64
	for change := true; change && !tr.Done(); {
		change = false
		c.Iterations++
		// Hook: for every edge (u,v), link the larger label's root to
		// the smaller label.
		for u := int64(0); u < n; u++ {
			if tr.Done() {
				return
			}
			oa.load(pcOA, u+1, trace.NoDep)
			tr.Exec(2)
			lo, hi := g.OA[u], g.OA[u+1]
			cuSeq := comp.load(pcCompU, u, trace.NoDep)
			for i := lo; i < hi; i++ {
				// Value-annotated: IMP learns the comp[NA[i]] gather.
				naSeq := na.loadv(pcNA, i, trace.NoDep, uint64(g.NA[i]))
				v := int64(g.NA[i])
				comp.load(pcCompV, v, naSeq)
				tr.Exec(2)
				cu, cv := c.comp[u], c.comp[v]
				if cu < cv {
					// comp[comp[v]] = comp[u]: double indirection.
					chk := comp.load(pcHookChk, int64(cv), naSeq)
					if c.comp[cv] == cv {
						c.comp[cv] = cu
						comp.store(pcHookSt, int64(cv), chk)
						change = true
					}
					tr.Exec(2)
				} else if cv < cu {
					chk := comp.load(pcHookChk, int64(cu), cuSeq)
					if c.comp[cu] == cu {
						c.comp[cu] = cv
						comp.store(pcHookSt, int64(cu), chk)
						change = true
					}
					tr.Exec(2)
				}
			}
			edgesDone += uint64(hi - lo)
			tr.Progress(edgesDone)
		}
		// Compress: pointer jumping until every vertex points at a root.
		for v := int64(0); v < n; v++ {
			if tr.Done() {
				return
			}
			dep := comp.load(pcJumpLd, v, trace.NoDep)
			for c.comp[v] != c.comp[c.comp[v]] {
				// Chase the chain: each hop depends on the previous.
				dep = comp.load(pcJumpLd, int64(c.comp[v]), dep)
				c.comp[v] = c.comp[c.comp[v]]
				comp.store(pcJumpSt, v, dep)
				tr.Exec(2)
			}
			tr.Exec(1)
		}
	}
}
