// Package kernels implements the six GAP benchmark kernels the paper
// evaluates (Table II) — BFS, PR, CC, BC, TC and SSSP — plus a small
// "regular suite" standing in for SPEC in the τ_glob safety experiment.
//
// Each kernel computes its real result in Go while emitting the memory
// accesses it performs on its simulated data structures through a
// trace.Tracer: synthetic per-site PCs, addresses inside mem.Space
// regions, dependency edges for indirect accesses, and non-memory
// instruction counts modelling the surrounding scalar work. Kernels
// also export the metadata the evaluation needs: which regions an
// expert would classify cache-averse (the Expert Programmer baseline)
// and a transpose-derived next-use oracle (the T-OPT baseline).
package kernels

import (
	"slices"

	"graphmem/internal/cache"
	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// Style is a kernel's execution style (Table II).
type Style string

// Execution styles from Table II.
const (
	PushMostly Style = "Push-Mostly"
	PushPull   Style = "Push & Pull"
	PullOnly   Style = "Pull-Only"
	PushOnly   Style = "Push-Only"
)

// Info is one kernel's Table II row.
type Info struct {
	// Name is the kernel's short name ("bfs", "pr", ...).
	Name string
	// IrregElemBytes describes the element size(s) of the irregularly
	// accessed data ("4B", "8B + 4B").
	IrregElemBytes string
	// Style is the push/pull execution style.
	Style Style
	// UsesFrontier reports whether the kernel maintains a frontier.
	UsesFrontier bool
}

// Suite is the workload suite a kernel belongs to.
type Suite int

// Kernel suites.
const (
	// GAP is the paper's six Table II kernels, each run on every input
	// graph: the 36-workload suite.
	GAP Suite = iota
	// Bonus is a graph kernel outside the 36-workload suite (SpMV,
	// Section II-A).
	Bonus
	// Regular is the SPEC stand-ins of the τ_glob study (regular.go);
	// their builders ignore the graph.
	Regular
)

// Kernel is one kernel a tool can name: its Table II row (which holds
// its name), its suite and its builder.
type Kernel struct {
	Info
	Suite Suite
	Build Builder
}

// kernelTable lists every kernel in Table II order, then the bonus and
// the regular ones. It is the one home of the kernel names: the
// harness's workload lists and Table II, tool help and name lookup all
// read it. The regular kernels are sized so their footprints, like
// SPEC's, fit mostly in the LLC.
var kernelTable = []Kernel{
	{Info{"bc", "8B + 4B", PushMostly, true}, GAP, NewBC},
	{Info{"bfs", "4B", PushPull, true}, GAP, NewBFS},
	{Info{"cc", "4B", PushMostly, false}, GAP, NewCC},
	{Info{"pr", "4B", PullOnly, false}, GAP, NewPR},
	{Info{"tc", "4B", PushOnly, false}, GAP, NewTC},
	{Info{"sssp", "4B", PushOnly, true}, GAP, NewSSSP},
	{Info{"spmv", "8B", PullOnly, false}, Bonus, NewSpMV},
	{Info{"triad", "8B", PushOnly, false}, Regular, func(_ *graph.Graph, s *mem.Space) Instance { return NewTriad(1<<15, s) }},
	{Info{"matvec", "8B", PushOnly, false}, Regular, func(_ *graph.Graph, s *mem.Space) Instance { return NewMatVec(256, 512, s) }},
	{Info{"stencil", "8B", PushOnly, false}, Regular, func(_ *graph.Graph, s *mem.Space) Instance { return NewStencil(1<<15, s) }},
}

// Names lists, in table order, the names of the kernels in the given
// suites.
func Names(suites ...Suite) []string {
	var names []string
	for _, k := range kernelTable {
		if slices.Contains(suites, k.Suite) {
			names = append(names, k.Name)
		}
	}
	return names
}

// Lookup finds a kernel by name.
func Lookup(name string) (Kernel, bool) {
	for _, k := range kernelTable {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// Instance is a kernel prepared on a concrete graph with its data
// structures allocated in a core's address space, ready to run any
// number of times.
type Instance interface {
	// Run executes the kernel, emitting its trace through tr. Run may
	// be invoked repeatedly (multi-core runs restart early finishers);
	// each invocation recomputes from scratch.
	Run(tr *trace.Tracer)
	// IrregularRegions lists the regions an expert programmer would
	// route to the SDC (the Expert Programmer baseline of Section V-C).
	IrregularRegions() []*mem.Region
	// Oracle returns the transpose-derived next-use oracle for the
	// T-OPT baseline, or nil when the kernel has no property array
	// T-OPT covers.
	Oracle() cache.NextUseOracle
}

// Builder constructs an Instance for a kernel on a graph, allocating
// its data structures in space.
type Builder func(g *graph.Graph, space *mem.Space) Instance

// traced wraps a region with load/store emission helpers shared by all
// kernels. Values live in plain Go slices owned by the kernels; traced
// only translates indices to addresses.
type traced struct {
	reg *mem.Region
	tr  *trace.Tracer
}

func newTraced(tr *trace.Tracer, reg *mem.Region) traced {
	return traced{reg: reg, tr: tr}
}

// load emits a read of element i and returns its sequence number.
func (a traced) load(pc uint64, i int64, dep int64) int64 {
	return a.tr.Load(pc, a.reg.ElemAddr(i), int(a.reg.ElemSize), dep)
}

// loadv emits a read of element i annotated with the value the load
// returns (index loads feeding gathers; see trace.Tracer.LoadValue).
func (a traced) loadv(pc uint64, i int64, dep int64, value uint64) int64 {
	return a.tr.LoadValue(pc, a.reg.ElemAddr(i), int(a.reg.ElemSize), dep, value)
}

// store emits a write of element i and returns its sequence number.
func (a traced) store(pc uint64, i int64, dep int64) int64 {
	return a.tr.Store(pc, a.reg.ElemAddr(i), int(a.reg.ElemSize), dep)
}

// TransposeOracle implements cache.NextUseOracle for a per-vertex
// property region whose irregular reference stream is the neighbors
// array scanned in order — exactly the schedule T-OPT (Balaji et al.)
// derives from the graph transpose. For each vertex it holds the sorted
// list of positions (edge indices) at which the vertex's property
// element is referenced; Rank quantizes the distance from the current
// traversal position to the covered block's next reference.
type TransposeOracle struct {
	region *mem.Region
	// posOA/pos is a CSR-like layout: positions of vertex v are
	// pos[posOA[v]:posOA[v+1]], ascending.
	posOA []int64
	pos   []int64
	// ptr[v] indexes the next not-yet-passed position of v; advanced
	// monotonically as progress grows.
	ptr []int64
	// horizon is the sweep length (total positions); the schedule
	// repeats every horizon for iterative kernels.
	horizon int64
	// progress is the current position in the sweep.
	progress int64
	elems    int64
}

// NewTransposeOracle builds the oracle for property region reg
// referenced by the stream na (the neighbors array in traversal order)
// over n vertices.
func NewTransposeOracle(reg *mem.Region, na []int32, n int32) *TransposeOracle {
	counts := make([]int64, n+1)
	for _, v := range na {
		counts[v+1]++
	}
	for i := int32(0); i < n; i++ {
		counts[i+1] += counts[i]
	}
	posOA := make([]int64, n+1)
	copy(posOA, counts)
	pos := make([]int64, len(na))
	cursor := make([]int64, n)
	copy(cursor, counts[:n])
	for i, v := range na {
		pos[cursor[v]] = int64(i)
		cursor[v]++
	}
	return &TransposeOracle{
		region:  reg,
		posOA:   posOA,
		pos:     pos,
		ptr:     append([]int64(nil), posOA[:n]...),
		horizon: int64(len(na)),
		elems:   int64(n),
	}
}

// SetProgress records the traversal position (edges processed since the
// run began); the schedule wraps every horizon.
func (o *TransposeOracle) SetProgress(edges uint64) {
	if o.horizon == 0 {
		return
	}
	p := int64(edges % uint64(o.horizon))
	if p < o.progress {
		// New sweep: rewind the per-vertex pointers.
		copy(o.ptr, o.posOA[:o.elems])
	}
	o.progress = p
}

// nextRef returns the distance (in positions) from progress to vertex
// v's next reference, wrapping to the next sweep; horizon when v is
// never referenced.
func (o *TransposeOracle) nextRef(v int64) int64 {
	lo, hi := o.posOA[v], o.posOA[v+1]
	if lo == hi {
		return o.horizon
	}
	p := o.ptr[v]
	for p < hi && o.pos[p] < o.progress {
		p++
	}
	o.ptr[v] = p
	if p < hi {
		return o.pos[p] - o.progress
	}
	// Wraps to next sweep.
	return o.pos[lo] + o.horizon - o.progress
}

// Rank implements cache.NextUseOracle.
func (o *TransposeOracle) Rank(blk mem.BlockAddr) uint8 {
	addr := blk.Addr()
	if !o.region.Contains(addr) {
		return cache.RankDefault
	}
	first := int64(uint64(addr-o.region.Base) / o.region.ElemSize)
	perBlock := int64(mem.BlockSize / o.region.ElemSize)
	last := first + perBlock - 1
	if last >= o.elems {
		last = o.elems - 1
	}
	best := o.horizon
	for v := first; v <= last; v++ {
		if d := o.nextRef(v); d < best {
			best = d
		}
	}
	// Quantize to 8 bits over one sweep.
	if o.horizon == 0 {
		return cache.RankMax
	}
	r := best * int64(cache.RankMax) / o.horizon
	if r >= int64(cache.RankMax) {
		return cache.RankMax
	}
	return uint8(r)
}
