package kernels

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// Parameter-invariance properties: algorithmic knobs that trade work
// for locality (δ bucket width, direction-switch thresholds) must never
// change results.

func TestSSSPDeltaInvariance(t *testing.T) {
	g := graph.RoadGrid(15, 15, 40, 21)
	ref := refDijkstra(g, 3)
	for _, delta := range []int64{1, 4, 16, 64, 1 << 20} {
		s := NewSSSP(g, mem.NewSpace(0)).(*SSSP)
		s.Delta = delta
		s.Sources = []int32{3}
		runFull(t, s)
		for v := range ref {
			if s.Dist()[v] != ref[v] {
				t.Fatalf("delta=%d: dist[%d] = %d, want %d", delta, v, s.Dist()[v], ref[v])
			}
		}
	}
}

func TestBFSDirectionSwitchInvariance(t *testing.T) {
	g := graph.Kron(10, 8, 22)
	ref := refBFSDepth(g, 1)
	for _, alpha := range []int64{1, 2, 14, 1 << 30} {
		b := NewBFS(g, mem.NewSpace(0)).(*BFS)
		b.Alpha = alpha
		b.Sources = []int32{1}
		runFull(t, b)
		for v := range ref {
			if b.Depth()[v] != ref[v] {
				t.Fatalf("alpha=%d: depth[%d] = %d, want %d", alpha, v, b.Depth()[v], ref[v])
			}
		}
	}
}

func TestBFSRandomGraphProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.Urand(300, 900, seed)
		b := NewBFS(g, mem.NewSpace(0)).(*BFS)
		b.Sources = []int32{0}
		b.Run(trace.New(&trace.CountingSink{}))
		ref := refBFSDepth(g, 0)
		for v := range ref {
			if b.Depth()[v] != ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestCCRandomGraphProperty(t *testing.T) {
	f := func(seed uint64, density uint8) bool {
		m := 100 + int64(density)*4
		g := graph.Urand(250, m, seed)
		c := NewCC(g, mem.NewSpace(0)).(*CC)
		c.Run(trace.New(&trace.CountingSink{}))
		ref := refComponents(g)
		// Partition equivalence.
		m1 := map[int32]int32{}
		m2 := map[int32]int32{}
		for v := int32(0); v < g.N; v++ {
			a, b := ref[v], c.Components()[v]
			if x, ok := m1[a]; ok && x != b {
				return false
			}
			if x, ok := m2[b]; ok && x != a {
				return false
			}
			m1[a], m2[b] = b, a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTCOnRoadGraphSparse(t *testing.T) {
	g := graph.RoadGrid(12, 12, 5, 23)
	tc := NewTC(g, mem.NewSpace(0)).(*TC)
	runFull(t, tc)
	if want := refTriangles(g); tc.Count != want {
		t.Fatalf("triangles = %d, want %d", tc.Count, want)
	}
}

func TestBCRepeatedRunsAccumulateFresh(t *testing.T) {
	// Run must recompute from scratch: two Runs give identical scores,
	// not doubled ones.
	g := graph.Urand(120, 500, 24)
	b := NewBC(g, mem.NewSpace(0)).(*BC)
	b.Sources = []int32{2}
	runFull(t, b)
	first := append([]float64(nil), b.Centrality()...)
	runFull(t, b)
	for v := range first {
		if math.Abs(b.Centrality()[v]-first[v]) > 1e-9 {
			t.Fatalf("bc[%d] drifted across runs: %g vs %g", v, b.Centrality()[v], first[v])
		}
	}
}

func TestPRDanglingVertices(t *testing.T) {
	// A graph with sinks (no out-edges) must not produce NaN/Inf.
	g := graph.Build(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 2},
	}, false)
	pr := NewPR(g, mem.NewSpace(0)).(*PR)
	runFull(t, pr)
	for v, s := range pr.Scores() {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			t.Fatalf("score[%d] = %g", v, s)
		}
	}
	// Vertex 2 receives from 1 and 3: highest score.
	if pr.Scores()[2] <= pr.Scores()[0] {
		t.Error("sink with two in-edges should outrank a source")
	}
}

func TestSSSPUnreachableVertices(t *testing.T) {
	// Two disconnected cliques: distances across must stay Unreachable.
	var edges []graph.Edge
	for u := int32(0); u < 3; u++ {
		for v := u + 1; v < 3; v++ {
			edges = append(edges, graph.Edge{Src: u, Dst: v, W: 1}, graph.Edge{Src: v, Dst: u, W: 1})
		}
	}
	for u := int32(3); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			edges = append(edges, graph.Edge{Src: u, Dst: v, W: 1}, graph.Edge{Src: v, Dst: u, W: 1})
		}
	}
	g := graph.Build(6, edges, true)
	s := NewSSSP(g, mem.NewSpace(0)).(*SSSP)
	s.Sources = []int32{0}
	runFull(t, s)
	for v := int32(3); v < 6; v++ {
		if s.Dist()[v] != Unreachable {
			t.Errorf("dist[%d] = %d, want Unreachable", v, s.Dist()[v])
		}
	}
	for v := int32(1); v < 3; v++ {
		if s.Dist()[v] != 1 {
			t.Errorf("dist[%d] = %d, want 1", v, s.Dist()[v])
		}
	}
}

func TestKernelsDeterministicTraces(t *testing.T) {
	// Same kernel, same graph, fresh instances: identical record
	// streams (the multi-core scheduler's restart semantics and the
	// memoized experiment runs both rely on this).
	g := testGraph(25)
	for _, k := range graphKernels() {
		name, build := k.Name, k.Build
		capture := func() []trace.Record {
			inst := build(g, mem.NewSpace(0))
			sink := &trace.SliceSink{Limit: 5000}
			inst.Run(trace.New(sink))
			return sink.Recs
		}
		a, b := capture(), capture()
		if len(a) != len(b) {
			t.Errorf("%s: trace lengths differ (%d vs %d)", name, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: record %d differs", name, i)
				break
			}
		}
	}
}

func TestSpMVMatchesDense(t *testing.T) {
	g := graph.RoadGrid(10, 10, 9, 31)
	s := NewSpMV(g, mem.NewSpace(0)).(*SpMV)
	runFull(t, s)
	// Dense reference product.
	for u := int32(0); u < g.N; u++ {
		want := 0.0
		adj, ws := g.Neighbors(u), g.Weights(u)
		for i, v := range adj {
			want += float64(ws[i]) * (1 / float64(v+1))
		}
		if math.Abs(s.Result()[u]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("y[%d] = %g, want %g", u, s.Result()[u], want)
		}
	}
	if s.Checksum == 0 {
		t.Error("checksum not accumulated")
	}
}

func TestSpMVGathersAreIrregular(t *testing.T) {
	g := graph.Urand(5000, 40000, 32)
	s := NewSpMV(g, mem.NewSpace(0)).(*SpMV)
	sink := &trace.SliceSink{Limit: 100000}
	s.Run(trace.New(sink))
	irreg := s.IrregularRegions()[0]
	var inX, deps int
	for _, r := range sink.Recs {
		if irreg.Contains(r.Addr) {
			inX++
			if r.DepDist > 0 {
				deps++
			}
		}
	}
	if inX == 0 || deps < inX*9/10 {
		t.Errorf("x gathers %d, with deps %d: expected dependent irregular stream", inX, deps)
	}
}

// hashSink folds the first Limit records, every field, into an FNV-1a
// hash, then stops the kernel.
type hashSink struct {
	Limit, Records int64
	Sum            uint64
}

func (h *hashSink) Access(r trace.Record) bool {
	if h.Records == 0 {
		h.Sum = 14695981039346656037
	}
	flags := uint64(r.Size) | uint64(r.NonMem)<<8 | uint64(uint32(r.DepDist))<<24
	if r.Write {
		flags |= 1 << 56
	}
	if r.HasValue {
		flags |= 1 << 57
	}
	for _, x := range [...]uint64{r.PC, uint64(r.Addr), flags, r.Value} {
		h.Sum = (h.Sum ^ x) * 1099511628211
	}
	h.Records++
	return h.Records < h.Limit
}

// TestSharedTransposeLeavesTraceUnchanged: a generator-built Kron graph
// is marked mirrored and hands pr and bfs *itself* as the CSC, where the
// same graph rebuilt through Build([]Edge) gets a separately allocated
// transpose. The kernels address CSR and CSC through their own
// mem.Regions, so which Go slice backs the CSC must not show: the first
// 1 M records and the results have to be identical. All four instances
// are prepared, and then run, at once, so that -race sees the sharing.
func TestSharedTransposeLeavesTraceUnchanged(t *testing.T) {
	gen := graph.Kron(16, 8, 0x6501)
	var edges []graph.Edge
	for u := int32(0); u < gen.N; u++ {
		for _, v := range gen.Neighbors(u) {
			edges = append(edges, graph.Edge{Src: u, Dst: v})
		}
	}
	rebuilt := graph.Build(gen.N, edges, false)

	type run struct {
		kernel string
		g      *graph.Graph
		inst   Instance
		sink   hashSink
	}
	runs := []*run{{kernel: "pr", g: gen}, {kernel: "pr", g: rebuilt}, {kernel: "bfs", g: gen}, {kernel: "bfs", g: rebuilt}}
	concurrently := func(f func(r *run)) {
		var wg sync.WaitGroup
		for _, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(r)
			}()
		}
		wg.Wait()
	}
	concurrently(func(r *run) {
		if r.kernel == "pr" {
			r.inst = NewPR(r.g, mem.NewSpace(0))
		} else {
			r.inst = NewBFS(r.g, mem.NewSpace(0))
		}
	})
	if gen.TransposeCached() != gen || rebuilt.TransposeCached() == rebuilt {
		t.Fatal("premise: only the generator-built graph shares its transpose")
	}
	concurrently(func(r *run) {
		r.sink.Limit = 1 << 20
		r.inst.Run(trace.New(&r.sink))
	})

	for i := 0; i < len(runs); i += 2 {
		a, b := runs[i], runs[i+1]
		if a.sink.Records != 1<<20 || a.sink != b.sink {
			t.Errorf("%s: record streams differ: shared %+v, separate %+v", a.kernel, a.sink, b.sink)
		}
	}
	if a, b := runs[0].inst.(*PR), runs[1].inst.(*PR); !slices.Equal(a.Scores(), b.Scores()) || a.Iterations != b.Iterations {
		t.Error("pr: scores differ")
	}
	if a, b := runs[2].inst.(*BFS), runs[3].inst.(*BFS); !slices.Equal(a.Depth(), b.Depth()) || !slices.Equal(a.Parent(), b.Parent()) {
		t.Error("bfs: depths or parents differ")
	}
}
