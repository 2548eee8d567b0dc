package kernels

import (
	"math"

	"graphmem/internal/cache"
	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// PR is the paper's Algorithm 1: pull-style PageRank over the CSC
// representation. Per iteration it first refreshes outgoing_contrib
// sequentially, then for every vertex gathers contrib[NA[i]] over its
// incoming neighbors — the irregular stream the paper's Fig. 3
// characterizes.
type PR struct {
	csc    *graph.Graph // incoming neighbors (transpose of the input)
	outDeg []int64

	scores  []float64
	contrib []float64

	regOA, regNA, regScores, regContrib, regOutDeg *mem.Region

	// Damping factor, convergence threshold and iteration bound follow
	// the GAP reference implementation.
	Damping  float64
	Epsilon  float64
	MaxIters int

	// Iterations records how many full iterations the last Run
	// completed (possibly cut short by the tracer).
	Iterations int
}

// NewPR prepares PageRank on g (interpreted as the out-edge CSR; the
// CSC is derived by transposition).
func NewPR(g *graph.Graph, space *mem.Space) Instance {
	n := int64(g.N)
	p := &PR{
		csc:      g.TransposeCached(),
		outDeg:   make([]int64, n),
		scores:   make([]float64, n),
		contrib:  make([]float64, n),
		Damping:  0.85,
		Epsilon:  1e-4,
		MaxIters: 20,
	}
	for u := int32(0); u < g.N; u++ {
		p.outDeg[u] = g.Degree(u)
	}
	p.regOA = space.Alloc("pr.oa", uint64(n+1)*8, 8, mem.ClassRegular)
	p.regNA = space.Alloc("pr.na", uint64(p.csc.NumEdges())*4, 4, mem.ClassStreaming)
	p.regScores = space.Alloc("pr.scores", uint64(n)*4, 4, mem.ClassRegular)
	p.regContrib = space.Alloc("pr.contrib", uint64(n)*4, 4, mem.ClassIrregular)
	p.regOutDeg = space.Alloc("pr.outdeg", uint64(n)*4, 4, mem.ClassRegular)
	return p
}

// IrregularRegions implements Instance: the expert routes the
// outgoing_contrib gathers to the SDC.
func (p *PR) IrregularRegions() []*mem.Region { return []*mem.Region{p.regContrib} }

// Oracle implements Instance: T-OPT covers the contrib array with the
// CSC neighbor stream as the reference schedule.
func (p *PR) Oracle() cache.NextUseOracle {
	return NewTransposeOracle(p.regContrib, p.csc.NA, p.csc.N)
}

// Scores returns the PageRank scores computed by the last Run.
func (p *PR) Scores() []float64 { return p.scores }

// Run implements Instance.
func (p *PR) Run(tr *trace.Tracer) {
	g := p.csc
	n := int64(g.N)
	oa := newTraced(tr, p.regOA)
	na := newTraced(tr, p.regNA)
	scores := newTraced(tr, p.regScores)
	contrib := newTraced(tr, p.regContrib)
	outdeg := newTraced(tr, p.regOutDeg)

	pcContribScore := tr.Site("pr.contrib.load_score")
	pcContribDeg := tr.Site("pr.contrib.load_outdeg")
	pcContribStore := tr.Site("pr.contrib.store")
	pcOA := tr.Site("pr.gather.load_oa")
	pcNA := tr.Site("pr.gather.load_na")
	pcGather := tr.Site("pr.gather.load_contrib")
	pcScoreOld := tr.Site("pr.update.load_score")
	pcScoreNew := tr.Site("pr.update.store_score")

	init := 1 / float64(n)
	for i := range p.scores {
		p.scores[i] = init
	}
	base := (1 - p.Damping) / float64(n)

	p.Iterations = 0
	var edgesDone uint64
	for iter := 0; iter < p.MaxIters && !tr.Done(); iter++ {
		// Phase 1: outgoing_contrib[u] = scores[u] / d+(u), sequential.
		for u := int64(0); u < n && !tr.Done(); u++ {
			scores.load(pcContribScore, u, trace.NoDep)
			outdeg.load(pcContribDeg, u, trace.NoDep)
			d := p.outDeg[u]
			if d == 0 {
				d = 1 // dangling vertices contribute to nobody
			}
			p.contrib[u] = p.scores[u] / float64(d)
			contrib.store(pcContribStore, u, trace.NoDep)
			tr.Exec(3)
		}
		// Phase 2: gather over incoming neighbors.
		errSum := 0.0
		for u := int64(0); u < n; u++ {
			if tr.Done() {
				return
			}
			oa.load(pcOA, u+1, trace.NoDep) // OA[u] carried in a register
			tr.Exec(2)
			sum := 0.0
			lo, hi := g.OA[u], g.OA[u+1]
			for i := lo; i < hi; i++ {
				// Value-annotated: IMP learns the contrib[NA[i]] gather.
				naSeq := na.loadv(pcNA, i, trace.NoDep, uint64(g.NA[i]))
				v := int64(g.NA[i])
				contrib.load(pcGather, v, naSeq)
				sum += p.contrib[v]
				tr.Exec(2)
			}
			edgesDone += uint64(hi - lo)
			tr.Progress(edgesDone)
			scores.load(pcScoreOld, u, trace.NoDep)
			old := p.scores[u]
			p.scores[u] = base + p.Damping*sum
			scores.store(pcScoreNew, u, trace.NoDep)
			errSum += math.Abs(p.scores[u] - old)
			tr.Exec(5)
		}
		p.Iterations++
		if errSum < p.Epsilon {
			break
		}
	}
}
