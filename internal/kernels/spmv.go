package kernels

import (
	"graphmem/internal/cache"
	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// SpMV is the paper's Section II-A motivating example: the sparse
// matrix-vector product y = A·x over the CSR matrix, whose accesses to
// the dense vector x are indexed by the column indices of A — the
// canonical irregular gather. It is not one of the six GAP kernels of
// the evaluation, but it is provided as a seventh workload for
// gmsim and the examples.
type SpMV struct {
	g *graph.Graph // CSR matrix: weights are the non-zero values
	x []float64
	y []float64

	regOA, regNA, regVals, regX, regY *mem.Region

	// Reps is the number of products per Run.
	Reps int
	// Checksum accumulates sum(y) so the work is observable.
	Checksum float64
}

// NewSpMV prepares y = A·x with A given by g (weights become values;
// unweighted graphs get unit-ish synthetic values).
func NewSpMV(g *graph.Graph, space *mem.Space) Instance {
	if !g.Weighted() {
		g = graph.AddUnitWeights(g, 8, 0x59e5)
	}
	n := int64(g.N)
	s := &SpMV{g: g, x: make([]float64, n), y: make([]float64, n), Reps: 4}
	for i := range s.x {
		s.x[i] = 1 / float64(i+1)
	}
	s.regOA = space.Alloc("spmv.oa", uint64(n+1)*8, 8, mem.ClassRegular)
	s.regNA = space.Alloc("spmv.na", uint64(g.NumEdges())*4, 4, mem.ClassStreaming)
	s.regVals = space.Alloc("spmv.vals", uint64(g.NumEdges())*8, 8, mem.ClassStreaming)
	s.regX = space.Alloc("spmv.x", uint64(n)*8, 8, mem.ClassIrregular)
	s.regY = space.Alloc("spmv.y", uint64(n)*8, 8, mem.ClassRegular)
	return s
}

// IrregularRegions implements Instance: x is gathered through NA.
func (s *SpMV) IrregularRegions() []*mem.Region { return []*mem.Region{s.regX} }

// Oracle implements Instance.
func (s *SpMV) Oracle() cache.NextUseOracle {
	return NewTransposeOracle(s.regX, s.g.NA, s.g.N)
}

// Result returns y from the last Run.
func (s *SpMV) Result() []float64 { return s.y }

// Run implements Instance.
func (s *SpMV) Run(tr *trace.Tracer) {
	g := s.g
	n := int64(g.N)
	oa := newTraced(tr, s.regOA)
	na := newTraced(tr, s.regNA)
	vals := newTraced(tr, s.regVals)
	x := newTraced(tr, s.regX)
	y := newTraced(tr, s.regY)

	pcOA := tr.Site("spmv.load_oa")
	pcNA := tr.Site("spmv.load_na")
	pcVal := tr.Site("spmv.load_val")
	pcX := tr.Site("spmv.load_x")
	pcY := tr.Site("spmv.store_y")

	s.Checksum = 0
	var edgesDone uint64
	for rep := 0; rep < s.Reps && !tr.Done(); rep++ {
		for u := int64(0); u < n; u++ {
			if tr.Done() {
				return
			}
			oa.load(pcOA, u+1, trace.NoDep)
			tr.Exec(2)
			sum := 0.0
			lo, hi := g.OA[u], g.OA[u+1]
			for i := lo; i < hi; i++ {
				naSeq := na.load(pcNA, i, trace.NoDep)
				vals.load(pcVal, i, trace.NoDep)
				col := int64(g.NA[i])
				x.load(pcX, col, naSeq)
				sum += float64(g.W[i]) * s.x[col]
				tr.Exec(2)
			}
			s.y[u] = sum
			s.Checksum += sum
			y.store(pcY, u, trace.NoDep)
			edgesDone += uint64(hi - lo)
			tr.Progress(edgesDone)
			tr.Exec(2)
		}
	}
}
