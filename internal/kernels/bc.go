package kernels

import (
	"graphmem/internal/cache"
	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// BC approximates betweenness centrality with the Brandes algorithm
// from a few sources, like GAP's -i sampling mode: a forward BFS
// accumulates shortest-path counts (sigma, the 8 B irregular element of
// Table II), then a backward pass over the BFS levels accumulates
// dependencies (delta, 4 B).
type BC struct {
	g *graph.Graph

	sigma []int64
	depth []int32
	delta []float64
	bc    []float64

	regOA, regNA, regSigma, regDepth, regDelta, regQueue *mem.Region

	// Sources are the sampled source vertices.
	Sources []int32
}

// NewBC prepares betweenness centrality on g.
func NewBC(g *graph.Graph, space *mem.Space) Instance {
	n := int64(g.N)
	b := &BC{
		g:     g,
		sigma: make([]int64, n),
		depth: make([]int32, n),
		delta: make([]float64, n),
		bc:    make([]float64, n),
	}
	b.regOA = space.Alloc("bc.oa", uint64(n+1)*8, 8, mem.ClassRegular)
	b.regNA = space.Alloc("bc.na", uint64(g.NumEdges())*4, 4, mem.ClassStreaming)
	b.regSigma = space.Alloc("bc.sigma", uint64(n)*8, 8, mem.ClassIrregular)
	b.regDepth = space.Alloc("bc.depth", uint64(n)*4, 4, mem.ClassIrregular)
	b.regDelta = space.Alloc("bc.delta", uint64(n)*4, 4, mem.ClassIrregular)
	b.regQueue = space.Alloc("bc.queue", uint64(n)*4, 4, mem.ClassRegular)
	b.Sources = defaultSources(g, 2)
	return b
}

// IrregularRegions implements Instance.
func (b *BC) IrregularRegions() []*mem.Region {
	return []*mem.Region{b.regSigma, b.regDepth, b.regDelta}
}

// Oracle implements Instance: T-OPT covers sigma, the widest irregular
// structure.
func (b *BC) Oracle() cache.NextUseOracle {
	return NewTransposeOracle(b.regSigma, b.g.NA, b.g.N)
}

// Centrality returns the accumulated centrality scores of the last Run.
func (b *BC) Centrality() []float64 { return b.bc }

// Run implements Instance.
func (b *BC) Run(tr *trace.Tracer) {
	g := b.g
	oa := newTraced(tr, b.regOA)
	na := newTraced(tr, b.regNA)
	sigma := newTraced(tr, b.regSigma)
	depth := newTraced(tr, b.regDepth)
	delta := newTraced(tr, b.regDelta)
	queue := newTraced(tr, b.regQueue)

	pcQ := tr.Site("bc.fwd.load_queue")
	pcOA := tr.Site("bc.fwd.load_oa")
	pcNA := tr.Site("bc.fwd.load_na")
	pcDepth := tr.Site("bc.fwd.probe_depth")
	pcDepthSt := tr.Site("bc.fwd.store_depth")
	pcSigmaLd := tr.Site("bc.fwd.load_sigma")
	pcSigmaSt := tr.Site("bc.fwd.store_sigma")
	pcQPush := tr.Site("bc.fwd.push_queue")
	pcBQ := tr.Site("bc.bwd.load_queue")
	pcBOA := tr.Site("bc.bwd.load_oa")
	pcBNA := tr.Site("bc.bwd.load_na")
	pcBDepth := tr.Site("bc.bwd.load_depth")
	pcBSigma := tr.Site("bc.bwd.load_sigma")
	pcBDelta := tr.Site("bc.bwd.load_delta")
	pcBDeltaSt := tr.Site("bc.bwd.store_delta")
	pcBCSt := tr.Site("bc.bwd.store_bc")

	for i := range b.bc {
		b.bc[i] = 0
	}

	var edgesDone uint64
	for _, src := range b.Sources {
		if tr.Done() {
			return
		}
		n := int64(g.N)
		for i := int64(0); i < n; i++ {
			b.sigma[i] = 0
			b.depth[i] = -1
			b.delta[i] = 0
		}
		b.sigma[src] = 1
		b.depth[src] = 0

		// Forward phase: BFS recording sigma and level boundaries.
		order := []int32{src}
		levelEnds := []int{1}
		head := 0
		level := int32(0)
		for head < len(order) && !tr.Done() {
			end := levelEnds[len(levelEnds)-1]
			for ; head < end; head++ {
				if tr.Done() {
					return
				}
				qSeq := queue.load(pcQ, int64(head), trace.NoDep)
				u := order[head]
				oaSeq := oa.load(pcOA, int64(u)+1, qSeq)
				tr.Exec(3)
				lo, hi := g.OA[u], g.OA[u+1]
				for i := lo; i < hi; i++ {
					naSeq := na.load(pcNA, i, oaSeq)
					v := g.NA[i]
					depth.load(pcDepth, int64(v), naSeq)
					tr.Exec(2)
					if b.depth[v] == -1 {
						b.depth[v] = level + 1
						depth.store(pcDepthSt, int64(v), naSeq)
						queue.store(pcQPush, int64(len(order)), trace.NoDep)
						order = append(order, v)
					}
					if b.depth[v] == level+1 {
						sigma.load(pcSigmaLd, int64(v), naSeq)
						b.sigma[v] += b.sigma[u]
						sigma.store(pcSigmaSt, int64(v), naSeq)
						tr.Exec(2)
					}
				}
				edgesDone += uint64(hi - lo)
				tr.Progress(edgesDone)
			}
			if len(order) > end {
				levelEnds = append(levelEnds, len(order))
				level++
			}
		}

		// Backward phase: walk the BFS order in reverse, accumulating
		// dependencies into delta and bc.
		for idx := len(order) - 1; idx >= 0 && !tr.Done(); idx-- {
			qSeq := queue.load(pcBQ, int64(idx), trace.NoDep)
			u := order[idx]
			oaSeq := oa.load(pcBOA, int64(u)+1, qSeq)
			tr.Exec(3)
			lo, hi := g.OA[u], g.OA[u+1]
			for i := lo; i < hi; i++ {
				naSeq := na.load(pcBNA, i, oaSeq)
				v := g.NA[i]
				depth.load(pcBDepth, int64(v), naSeq)
				tr.Exec(2)
				if b.depth[v] == b.depth[u]+1 {
					sigma.load(pcBSigma, int64(v), naSeq)
					delta.load(pcBDelta, int64(v), naSeq)
					contrib := float64(b.sigma[u]) / float64(b.sigma[v]) * (1 + b.delta[v])
					b.delta[u] += contrib
					delta.store(pcBDeltaSt, int64(u), trace.NoDep)
					tr.Exec(4)
				}
			}
			edgesDone += uint64(hi - lo)
			tr.Progress(edgesDone)
			if u != src {
				b.bc[u] += b.delta[u]
				delta.store(pcBCSt, int64(u), trace.NoDep)
				tr.Exec(2)
			}
		}
	}
}
