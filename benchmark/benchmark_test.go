package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"graphmem/internal/graph"
	"graphmem/internal/harness"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/sim"
	"graphmem/internal/stats"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 values = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got, want := spreadShare(xs), 1.0; got != want {
		t.Errorf("spreadShare = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: both ends clamp.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func TestLowerQuartile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 2}, 2},    // not the 1.75 the exclusive method extrapolates to
		{[]float64{4, 2, 3}, 2}, // three passes: the fastest
		{[]float64{4, 2, 3, 5}, 2.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75},
	} {
		if got := lowerQuartile(c.xs); got != c.want {
			t.Errorf("lowerQuartile(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestServeLayout(t *testing.T) {
	for _, c := range []struct {
		cpus         []int
		workers      int
		clients      int
		server, load []int
	}{
		{nil, 1, 1, nil, nil},
		{[]int{0}, 1, 1, nil, nil}, // one core: shared, unconfined
		{[]int{0, 1}, 2, 1, []int{0}, []int{1}},
		{[]int{0, 1}, 1, 1, []int{0}, []int{1}},
		{[]int{2, 3, 6}, 3, 1, []int{2, 3}, []int{6}},
		{[]int{0, 1, 2, 3}, 4, 2, []int{0, 1}, []int{2, 3}},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7}, 4, 2, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}},
	} {
		clients, server, load := serveLayout(c.cpus, c.workers)
		if clients != c.clients || !slices.Equal(server, c.server) || !slices.Equal(load, c.load) {
			t.Errorf("serveLayout(%v, %d) = %d clients, server %v, load %v; want %d, %v, %v",
				c.cpus, c.workers, clients, server, load, c.clients, c.server, c.load)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples (9 beyond it) was not refused")
	}
	xs = append(xs, 999)
	p99, err := percentile(xs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if math.Abs(p99-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %g, want 989.01", p99)
	}
	if _, err := percentile(xs[:100], 90); err != nil {
		t.Errorf("p90 of 100 samples (10 beyond it): %v", err)
	}
	if _, err := percentile(xs, 100); err == nil {
		t.Error("p100 was not refused")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: timedSpan, Start: ms(0), End: ms(100)},
		// Nested: 1 holds 2.
		{ID: 1, Parent: 0, Name: "harness.experiment", Start: ms(10), End: ms(60)},
		{ID: 2, Parent: 1, Name: "graph.build", Start: ms(20), End: ms(40)},
		// Overlapping siblings under 1, one reaching past its parent.
		{ID: 3, Parent: 1, Name: "graph.build", Start: ms(30), End: ms(50)},
		{ID: 4, Parent: 1, Name: "graph.build", Start: ms(55), End: ms(70)},
		// A root that is not a timed section stays out of the ledger.
		{ID: 5, Parent: -1, Name: "bench.setup", Start: ms(100), End: ms(200)},
		{ID: 6, Parent: 5, Name: "graph.build", Start: ms(110), End: ms(150)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		0: ms(50), // 100 minus child 1's 50
		1: ms(15), // 50 minus the union [20,50] and [55,60]
		2: ms(20), 3: ms(20), 4: ms(15),
		5: ms(60),
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	byName, durs, total := ledger(spans, timedSpan)
	if total != ms(100) {
		t.Errorf("timed total = %v, want 100ms", total)
	}
	if got := byName["graph.build"]; got != ms(55) {
		t.Errorf("graph.build self time under timed sections = %v, want 55ms", got)
	}
	if got := durs["graph.build"]; got != ms(55) {
		t.Errorf("graph.build duration under timed sections = %v, want 55ms", got)
	}
	layers := layerTotals(byName)
	if layers["harness"] != ms(15) || layers["bench"] != ms(50) {
		t.Errorf("layer totals = %v", layers)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x.y", -1)
	tr.scope(id)
	tr.end(id)
	tr.setRep(3)
	if tr.current() != -1 || tr.closed() != nil {
		t.Error("nil tracer recorded something")
	}
}

// loadSpec reads and validates a BENCHMARK.json, refusing unknown keys.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := new(benchSpec)
	if err := dec.Decode(s); err != nil {
		return nil, err
	}
	return s, s.validate()
}

func TestSpecMatchesFile(t *testing.T) {
	want, err := defaultSpec().encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; run `bash benchmark/run.sh -write-spec`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, defaultSpec()) {
		t.Error("BENCHMARK.json does not round-trip to the tables in spec.go")
	}
	if spec.RunSeconds != defaultRunSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", spec.RunSeconds, defaultRunSeconds)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	for _, name := range []string{"cpu_s", "gmserved.lat_p99_ms", "9lives", "a-b.c_d", strings.Repeat("x", 64)} {
		if !validName(name) {
			t.Errorf("name %q refused", name)
		}
	}
	for _, name := range []string{"", ".hidden", "_x", "a b", "a/b", "naïve", strings.Repeat("x", 65)} {
		if validName(name) {
			t.Errorf("name %q accepted", name)
		}
	}
	for what, mutate := range map[string]func(*benchSpec){
		"duplicate name":   func(s *benchSpec) { s.PerLayer = append(s.PerLayer, layerMetric{"cpu_s", "s", "lower"}) },
		"bound above 0.25": func(s *benchSpec) { s.EndToEnd[1].Bound = 0.3 },
		"no setup_s":       func(s *benchSpec) { s.EndToEnd = s.EndToEnd[1:] },
		"unit with space":  func(s *benchSpec) { s.PerLayer[0].Unit = "per s" },
		"direction":        func(s *benchSpec) { s.PerLayer[0].Better = "bigger" },
		"one workload":     func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"two-line why":     func(s *benchSpec) { s.Workloads[0].Why = "a\nb" },
		"absolute command": func(s *benchSpec) { s.Command = []string{"/bin/sh"} },
		"path leaves repo": func(s *benchSpec) { s.Paths = []string{"../x"} },
		"run_seconds 0":    func(s *benchSpec) { s.RunSeconds = 0 },
	} {
		s := defaultSpec()
		// Deep enough a copy for the mutations above.
		s.Workloads = append([]workloadSpec(nil), s.Workloads...)
		s.EndToEnd = append([]endToEndMetric(nil), s.EndToEnd...)
		s.PerLayer = append([]layerMetric(nil), s.PerLayer...)
		mutate(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	extra := []byte(`{"command":["x"],"paths":["p"],"run_seconds":1,"workloads":[],"end_to_end":[],"per_layer":[],"host":"me"}`)
	path := t.TempDir() + "/BENCHMARK.json"
	if err := os.WriteFile(path, extra, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSpec(path); err == nil {
		t.Error("a BENCHMARK.json with a key of its own was accepted")
	}
}

// The benchmark repeats harness.Bench()'s generator parameters so that
// other seeds can rebuild the same generators; with no seed mixed in
// they must build the profile's graphs. (The two cheap generators stand
// for the four: all come from the one graphParams literal.)
func TestSeedOneMatchesProfile(t *testing.T) {
	if seedMix(1) != 0 || seedMix(2) == 0 || seedMix(0) == 0 {
		t.Fatal("seedMix: only seed 1 may leave the profile's seeds alone")
	}
	own := generators(benchGraphs, 0)
	prof := harness.Bench()
	for _, name := range []string{"urand", "twitter"} {
		a, b := own[name](), prof.Graphs[name].Build()
		if a.N != b.N || !slices.Equal(a.OA, b.OA) || !slices.Equal(a.NA, b.NA) {
			t.Errorf("%s: the benchmark's generator and harness.Bench()'s build different graphs", name)
		}
	}
	other := generators(benchGraphs, seedMix(2))["urand"]()
	if slices.Equal(other.NA, own["urand"]().NA) {
		t.Error("seed 2 built the same urand graph as seed 1")
	}
}

// runWorkload executes one run and releases everything it made.
func runWorkload(cfg runConfig) (*runResult, error) {
	e := newEnv(cfg)
	defer e.cleanup()
	return e.run()
}

func TestWorkersBoundedByCores(t *testing.T) {
	cfg := runConfig{workload: wDetailSim, seed: 1, workers: runtime.NumCPU() + 1, sz: quickSizes(), tmpRoot: t.TempDir(), log: io.Discard}
	if _, err := runWorkload(cfg); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Errorf("more workers than cores: err = %v", err)
	}
	cfg.workers, cfg.workload = 1, "no_such"
	if _, err := runWorkload(cfg); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestQuickSmoke drives all six workloads end to end at the -quick
// sizes, traced, so that every metric, check and probe runs.
func TestQuickSmoke(t *testing.T) {
	digests := make(map[string]string)
	for _, spec := range workloadSpecs {
		if spec.Name == wServeWarm {
			if _, err := exec.LookPath("go"); err != nil {
				t.Log("serve_warm skipped: no go tool to build gmserved with")
				continue
			}
		}
		tmp := t.TempDir()
		res, err := runWorkload(runConfig{
			workload: spec.Name, seed: 2, seconds: 0, traced: true,
			workers: min(runtime.NumCPU(), 2), sz: quickSizes(), tmpRoot: tmp, log: io.Discard,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d/%d %v", spec.Name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		for _, m := range endToEndSpecs {
			if v := res.EndToEnd[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %v", spec.Name, m.Name, v)
			}
		}
		if len(res.PerLayer) != len(perLayerSpecs) {
			t.Errorf("%s: %d per-layer metrics, want %d", spec.Name, len(res.PerLayer), len(perLayerSpecs))
		}
		if share := res.PerLayer["trace.accounted_share"].Value; share <= 0 || share > 1 {
			t.Errorf("%s: trace.accounted_share = %g", spec.Name, share)
		}
		digests[spec.Name] = res.Digest
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("%s: left %d entries in its scratch directory", spec.Name, len(left))
		}

		// The last line the driver reads: exactly four keys, and the
		// per-layer set for a traced run.
		line, err := res.line()
		if err != nil {
			t.Fatal(err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatal(err)
		}
		if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
			t.Errorf("%s: result line has keys %v", spec.Name, reflect.ValueOf(obj).MapKeys())
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(obj["metrics"], &metrics); err != nil || len(metrics) != len(perLayerSpecs) {
			t.Errorf("%s: traced result line carries %d metrics (%v), want the %d per-layer ones", spec.Name, len(metrics), err, len(perLayerSpecs))
		}
		res.Traced = false
		line, _ = res.line()
		metrics = nil
		if err := json.Unmarshal(line, &obj); err == nil {
			json.Unmarshal(obj["metrics"], &metrics)
		}
		if len(metrics) != len(endToEndSpecs) {
			t.Errorf("%s: untraced result line carries %d metrics, want %d", spec.Name, len(metrics), len(endToEndSpecs))
		}
	}
	if digests[wSweepCold] != digests[wSweepWarm] {
		t.Errorf("sweep_warm served %s, sweep_cold rendered %s: reports differ", digests[wSweepWarm], digests[wSweepCold])
	}
	if layers := []string{wColdPoint, wDetailSim}; digests[layers[0]] == digests[layers[1]] {
		t.Error("two different workloads share a digest")
	}
}

// A warm-up that ends inside pr's per-vertex initialisation must fail
// the window check; one that covers it must pass and report where the
// gathers begin.
func TestCheckPhase(t *testing.T) {
	g := graph.Kron(10, 8, 1) // 1024 vertices: 6144 instructions of initialisation
	space := mem.NewSpace(0)
	wl := sim.Workload{Name: "pr.test", Inst: kernels.NewPR(g, space), Space: space}
	init := int64(g.N) * 6

	e := newEnv(runConfig{log: io.Discard})
	e.checkPhase(wl, init+1000, 5000)
	if e.failed != 0 {
		t.Fatalf("warm-up past the initialisation refused: %v", e.problems)
	}
	if e.gatherStart <= init || e.gatherStart > init+10 {
		t.Errorf("gathers begin at instruction %d, want just past %d", e.gatherStart, init)
	}
	if e.gatherShare <= 0 || e.gatherShare >= 1 {
		t.Errorf("dependent share of the measured window = %g", e.gatherShare)
	}

	e = newEnv(runConfig{log: io.Discard})
	e.checkPhase(wl, init/2, init/4)
	if e.failed != 1 {
		t.Errorf("a measured window inside the initialisation stream was accepted (failed=%d)", e.failed)
	}
}

func TestCheckStats(t *testing.T) {
	good := stats.CoreStats{
		Cycles: 5000, Instructions: 1000, MemOps: 400, Loads: 300, Stores: 100,
		L1D: stats.CacheStats{Hits: 250, Misses: 50}, SDC: stats.CacheStats{Hits: 60, Misses: 40},
		ServedL1D: 200, ServedSDC: 40, ServedL2: 10, ServedDRAM: 50,
		DRAMReads: 70, DRAMRowHits: 30, DRAMRowMisses: 40,
	}
	if err := checkStats("good", &good, 1000); err != nil {
		t.Fatalf("consistent counters refused: %v", err)
	}
	for what, mutate := range map[string]func(*stats.CoreStats){
		"window not filled":             func(s *stats.CoreStats) { s.Instructions = 999 },
		"no cycles":                     func(s *stats.CoreStats) { s.Cycles = 0 },
		"loads + stores":                func(s *stats.CoreStats) { s.Loads++ },
		"first-level accesses":          func(s *stats.CoreStats) { s.L1D.Hits++ },
		"more served than loaded":       func(s *stats.CoreStats) { s.ServedL1D += 100 },
		"more served below than missed": func(s *stats.CoreStats) { s.ServedDRAM += 40; s.ServedL1D -= 40 },
		"row outcomes":                  func(s *stats.CoreStats) { s.DRAMRowHits++ },
	} {
		s := good
		mutate(&s)
		if err := checkStats(what, &s, 1000); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}
