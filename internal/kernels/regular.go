package kernels

import (
	"graphmem/internal/cache"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// The τ_glob experiment (Section V-B3) checks that routing decisions do
// not hurt cache-friendly general-purpose code, using SPEC 2006/2017.
// SPEC is not redistributable, so this file provides a "regular suite"
// of strongly cache-friendly kernels exercising the same access shapes
// SPEC's memory-bound components do: a STREAM-style triad, a blocked
// dense matrix-vector product, and a 1-D stencil. DESIGN.md documents
// the substitution.

// Triad is the STREAM triad a[i] = b[i] + s*c[i]: three perfectly
// sequential streams.
type Triad struct {
	n                int64
	regA, regB, regC *mem.Region
	Reps             int
	// Sum accumulates a checksum so the work is observable.
	Sum float64
}

// NewTriad prepares a triad over n elements per stream.
func NewTriad(n int64, space *mem.Space) *Triad {
	t := &Triad{n: n, Reps: 4}
	t.regA = space.Alloc("triad.a", uint64(n)*8, 8, mem.ClassRegular)
	t.regB = space.Alloc("triad.b", uint64(n)*8, 8, mem.ClassRegular)
	t.regC = space.Alloc("triad.c", uint64(n)*8, 8, mem.ClassRegular)
	return t
}

// IrregularRegions implements Instance: a triad has none.
func (t *Triad) IrregularRegions() []*mem.Region { return nil }

// Oracle implements Instance.
func (t *Triad) Oracle() cache.NextUseOracle { return nil }

// Run implements Instance.
func (t *Triad) Run(tr *trace.Tracer) {
	a := newTraced(tr, t.regA)
	b := newTraced(tr, t.regB)
	c := newTraced(tr, t.regC)
	pcB := tr.Site("triad.load_b")
	pcC := tr.Site("triad.load_c")
	pcA := tr.Site("triad.store_a")
	t.Sum = 0
	for rep := 0; rep < t.Reps && !tr.Done(); rep++ {
		for i := int64(0); i < t.n; i++ {
			if tr.Done() {
				return
			}
			b.load(pcB, i, trace.NoDep)
			c.load(pcC, i, trace.NoDep)
			a.store(pcA, i, trace.NoDep)
			t.Sum += float64(i)
			tr.Exec(3)
		}
	}
}

// MatVec is a blocked dense matrix-vector product y = M*x: the matrix
// streams, x is reused within blocks, y streams.
type MatVec struct {
	rows, cols       int64
	regM, regX, regY *mem.Region
	// Sum accumulates a checksum.
	Sum float64
}

// NewMatVec prepares a rows x cols dense product.
func NewMatVec(rows, cols int64, space *mem.Space) *MatVec {
	m := &MatVec{rows: rows, cols: cols}
	m.regM = space.Alloc("matvec.m", uint64(rows*cols)*8, 8, mem.ClassRegular)
	m.regX = space.Alloc("matvec.x", uint64(cols)*8, 8, mem.ClassRegular)
	m.regY = space.Alloc("matvec.y", uint64(rows)*8, 8, mem.ClassRegular)
	return m
}

// IrregularRegions implements Instance.
func (m *MatVec) IrregularRegions() []*mem.Region { return nil }

// Oracle implements Instance.
func (m *MatVec) Oracle() cache.NextUseOracle { return nil }

// Run implements Instance.
func (m *MatVec) Run(tr *trace.Tracer) {
	mm := newTraced(tr, m.regM)
	x := newTraced(tr, m.regX)
	y := newTraced(tr, m.regY)
	pcM := tr.Site("matvec.load_m")
	pcX := tr.Site("matvec.load_x")
	pcY := tr.Site("matvec.store_y")
	const blk = 512
	m.Sum = 0
	for j0 := int64(0); j0 < m.cols && !tr.Done(); j0 += blk {
		j1 := j0 + blk
		if j1 > m.cols {
			j1 = m.cols
		}
		for i := int64(0); i < m.rows; i++ {
			if tr.Done() {
				return
			}
			for j := j0; j < j1; j++ {
				mm.load(pcM, i*m.cols+j, trace.NoDep)
				x.load(pcX, j, trace.NoDep)
				m.Sum += float64(i + j)
				tr.Exec(2)
			}
			y.store(pcY, i, trace.NoDep)
			tr.Exec(2)
		}
	}
}

// Stencil is a 1-D 3-point Jacobi sweep: two sequential streams with
// perfect spatial reuse.
type Stencil struct {
	n             int64
	regIn, regOut *mem.Region
	Reps          int
	// Sum accumulates a checksum.
	Sum float64
}

// NewStencil prepares a stencil over n points.
func NewStencil(n int64, space *mem.Space) *Stencil {
	s := &Stencil{n: n, Reps: 4}
	s.regIn = space.Alloc("stencil.in", uint64(n)*8, 8, mem.ClassRegular)
	s.regOut = space.Alloc("stencil.out", uint64(n)*8, 8, mem.ClassRegular)
	return s
}

// IrregularRegions implements Instance.
func (s *Stencil) IrregularRegions() []*mem.Region { return nil }

// Oracle implements Instance.
func (s *Stencil) Oracle() cache.NextUseOracle { return nil }

// Run implements Instance.
func (s *Stencil) Run(tr *trace.Tracer) {
	in := newTraced(tr, s.regIn)
	out := newTraced(tr, s.regOut)
	pcL := tr.Site("stencil.load")
	pcS := tr.Site("stencil.store")
	s.Sum = 0
	for rep := 0; rep < s.Reps && !tr.Done(); rep++ {
		for i := int64(1); i < s.n-1; i++ {
			if tr.Done() {
				return
			}
			// The i-1 and i values are register-carried; only the
			// leading edge of the window is loaded.
			in.load(pcL, i+1, trace.NoDep)
			out.store(pcS, i, trace.NoDep)
			s.Sum += float64(i)
			tr.Exec(4)
		}
	}
}
