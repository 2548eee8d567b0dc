package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphmem/internal/graph"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
	"graphmem/internal/store"
)

// samplingPlan is the fast schedule the workbench tests run under:
// ~6 samples inside fastBench's 300k-instruction window.
func samplingPlan() sample.Plan {
	return sample.Plan{Period: 50_000, SampleLen: 2_000, Offset: 10_000, DetailWarm: 2_000}
}

// TestSampledSweepSharesOneWarmup pins what the warm entries of the
// result store are for: a sweep of N configs over one workload,
// identical in everything the warm-up depends on (here: varying only
// the directory latency), performs exactly one functional warm-up,
// whatever order the scheduler runs them in. The first run misses and
// captures; the other N-1 restore. The store then holds N results and
// one warm-up, and serves the whole sweep to a second workbench without
// simulating or warming anything.
func TestSampledSweepSharesOneWarmup(t *testing.T) {
	dir := t.TempDir()
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	base := fastBench().BaseConfig(1).WithSDCLP()
	cfgs := []sim.Config{
		base.WithDirLatency(28),
		base.WithDirLatency(56),
		base.WithDirLatency(112),
	}
	sweep := func(st *store.Store) (*Workbench, []RunSpec, []*sim.Result) {
		wb := NewWorkbench(fastBench())
		wb.Sampling, wb.Store, wb.Parallelism = samplingPlan(), st, len(cfgs)
		jobs := make([]RunSpec, len(cfgs))
		for i, cfg := range cfgs {
			jobs[i] = wb.Spec(cfg, id)
		}
		return wb, jobs, wb.runAll(jobs)
	}
	open := func() *store.Store {
		st, err := OpenResultStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	wb, jobs, results := sweep(st)
	hits := 0
	for i, r := range results {
		if r == nil || r.Sampling == nil {
			t.Fatalf("config %d: no sampling estimate on result %v", i, r)
		}
		if r.Sampling.Samples == 0 {
			t.Errorf("config %d: estimate covers zero samples", i)
		}
		if r.Sampling.CheckpointHit {
			hits++
		}
	}
	if hits != len(cfgs)-1 {
		t.Errorf("%d results marked CheckpointHit; want %d (one warm-up)", hits, len(cfgs)-1)
	}
	warm := jobs[0].cfg.WarmKey(id.String())
	for _, s := range jobs[1:] {
		if k := s.cfg.WarmKey(id.String()); k != warm {
			t.Fatalf("timing-only variants address two warm-ups: %s vs %s", warm, k)
		}
	}
	if entries, _, _ := st.Size(); entries != len(cfgs)+1 || !st.Contains(warm) {
		t.Errorf("store holds %d entries (warm-up present: %v); want %d results and one warm entry",
			entries, st.Contains(warm), len(cfgs))
	}

	// The three runs memoized under three distinct sampled keys.
	keys := wb.SortedResultKeys()
	if len(keys) != len(cfgs) {
		t.Fatalf("memoized %d keys, want %d: %v", len(keys), len(cfgs), keys)
	}
	for _, s := range jobs {
		if !s.cfg.Sampling.Enabled() || !slices.Contains(keys, s.Key()) {
			t.Errorf("no memo entry under %s's sampled key %s: %v", s.cfg.Name, s.Key(), keys)
		}
	}

	_, _, plain := sweep(nil)
	if got, want := sampledTable(results), sampledTable(plain); got != want {
		t.Errorf("the shared warm-up changed the report:\n%s\nstoreless:\n%s", got, want)
	}

	again := open()
	wb, _, served := sweep(again)
	if _, simulated, _, _ := wb.Metrics.Counts(); simulated != 0 || again.Hits() != int64(len(cfgs)) || again.Misses() != 0 {
		t.Errorf("second workbench: %d simulations, %d hits, %d misses; want the %d results served and no warm-up",
			simulated, again.Hits(), again.Misses(), len(cfgs))
	}
	if got, want := sampledTable(served), sampledTable(plain); got != want {
		t.Errorf("the store served another report:\n%s\nstoreless:\n%s", got, want)
	}
}

// sampledTable renders a sampled sweep's estimates at full precision.
func sampledTable(rs []*sim.Result) string {
	t := &Table{ID: "sampled", Title: "sampled sweep",
		Header: []string{"Config", "IPC", "±", "L1D MPKI", "samples", "instructions"}}
	for _, r := range rs {
		e := r.Sampling
		t.AddRow(r.Config, fmt.Sprint(e.IPC.Mean), fmt.Sprint(e.IPC.HalfWidth),
			fmt.Sprint(e.L1DemandMPKI.Mean), e.Samples, r.Stats.Instructions)
	}
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// TestOneFramingVersionsEveryEntry pins the one version on disk: after
// a sampled run the store holds its result and its warm-up, both framed
// by sim.ResultFraming, so sim.StateVersion versions both — rewriting
// either entry's version byte turns it into a miss.
func TestOneFramingVersionsEveryEntry(t *testing.T) {
	dir := t.TempDir()
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	base := fastBench().BaseConfig(1).WithSDCLP()
	run := func(cfg sim.Config) (*sim.Result, *store.Store, RunSpec) {
		st, err := OpenResultStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		wb := NewWorkbench(fastBench())
		wb.Sampling, wb.Store = samplingPlan(), st
		s := wb.Spec(cfg, id)
		return wb.Run(s), st, s
	}
	_, st, s := run(base)

	files, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(files) != 2 {
		t.Fatalf("store files %v (%v); want one result and one warm-up", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.ResultFraming().Decode(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
		}
	}
	restamp := func(key string) {
		data, err := os.ReadFile(st.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		data[8]++ // the framing's version, little-endian
		if err := os.WriteFile(st.Path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A result entry of another version: the run goes live and restores
	// its warm-up.
	restamp(s.StoreKey())
	res, st, _ := run(base)
	if st.Hits() != 1 || st.Misses() != 1 || !res.Sampling.CheckpointHit {
		t.Errorf("restamped result: %d hits, %d misses, warm-up restored %v; want the result missed and the warm-up hit",
			st.Hits(), st.Misses(), res.Sampling.CheckpointHit)
	}
	// A warm entry of another version: a timing-only variant (its own
	// result key, the same warm key) misses both and re-warms.
	restamp(s.cfg.WarmKey(id.String()))
	res, st, _ = run(base.WithDirLatency(112))
	if st.Hits() != 0 || st.Misses() != 2 || res.Sampling.CheckpointHit {
		t.Errorf("restamped warm-up: %d hits, %d misses, warm-up restored %v; want both missed",
			st.Hits(), st.Misses(), res.Sampling.CheckpointHit)
	}
}

// TestSamplingOffKeysUnchanged pins the byte-identity contract on the
// memoization layer: with the workbench's sampling knobs at their zero
// values, run keys and results carry no sampling trace at all.
func TestSamplingOffKeysUnchanged(t *testing.T) {
	wb := NewWorkbench(fastBench())
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	res := wb.RunSingle(wb.Profile.BaseConfig(1), id)
	if res.Sampling != nil {
		t.Error("unsampled run carries a sampling estimate")
	}
	cfg := wb.Profile.BaseConfig(1).WithWindows(wb.Profile.Warmup, wb.Profile.Measure)
	keys := wb.SortedResultKeys()
	if len(keys) != 1 || keys[0] != NewRunSpec(cfg, id, "bench").Key() {
		t.Errorf("memo keys %v; want the key of the plain windowed config", keys)
	}
}

// TestSampledRunTracksDetailed validates the estimate end to end
// through the workbench: a sampled run's IPC point estimate lands
// within a few percent of the detailed run of the same config.
func TestSampledRunTracksDetailed(t *testing.T) {
	id := WorkloadID{Kernel: "pr", Graph: "kron"}
	cfg := wbShared.Profile.BaseConfig(1)
	full := wbShared.RunSingle(cfg, id)

	wb := NewWorkbench(Bench())
	wb.Sampling = sample.Plan{Period: 65_000, SampleLen: 5_000, Offset: 13_000, DetailWarm: 5_000}
	// Reuse the shared workbench's built graph to keep the test cheap.
	wb.Profile.Graphs["kron"] = GraphSpec{Name: "kron", Build: func() *graph.Graph { return wbShared.Graph("kron") }}
	sampled := wb.RunSingle(cfg, id)
	if sampled.Sampling == nil {
		t.Fatal("sampled workbench produced no estimate")
	}
	if re := relErr(sampled.Sampling.IPC.Mean, full.IPC()); re > 0.03 {
		t.Errorf("sampled IPC %.4f vs detailed %.4f: rel error %.1f%% > 3%%",
			sampled.Sampling.IPC.Mean, full.IPC(), 100*re)
	}
}

func relErr(est, ref float64) float64 {
	d := est - ref
	if d < 0 {
		d = -d
	}
	return d / ref
}

// TestCheckpointKeyNamesTheInput pins the warm-up address's scope: a
// profile fixes its graphs, so two profiles with the same machine and
// windows but different "urand" graphs must not share a warm-up through
// one store. The second profile's run captures its own state and equals
// a run that never saw a store.
func TestCheckpointKeyNamesTheInput(t *testing.T) {
	withUrand := func(name string, seed uint64) Profile {
		p := fastBench()
		p.Name = name
		p.Graphs = map[string]GraphSpec{"urand": {Name: "urand", Build: func() *graph.Graph {
			return graph.Urand(1<<14, 1<<17, seed)
		}}}
		return p
	}
	st, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := WorkloadID{Kernel: "cc", Graph: "urand"}
	base := fastBench().BaseConfig(1).WithSDCLP()
	run := func(p Profile, st *store.Store, cfg sim.Config) (*sim.Result, string) {
		wb := NewWorkbench(p)
		wb.Sampling, wb.Store = samplingPlan(), st
		s := wb.Spec(cfg, id)
		return wb.Run(s), s.cfg.WarmKey(id.String())
	}

	_, warmOne := run(withUrand("one", 1), st, base)
	second, warmTwo := run(withUrand("two", 2), st, base)
	if warmOne == warmTwo || !st.Contains(warmOne) || !st.Contains(warmTwo) {
		t.Errorf("warm keys %s / %s (stored %v / %v); want one warm entry per profile: they hold different graphs",
			warmOne, warmTwo, st.Contains(warmOne), st.Contains(warmTwo))
	}
	if second.Sampling.CheckpointHit {
		t.Error("profile two restored profile one's warm-up")
	}
	if plain, _ := run(withUrand("two", 2), nil, base); !reflect.DeepEqual(second.Stats, plain.Stats) {
		t.Errorf("profile two behind a shared store differs from a storeless run:\n got IPC %.4f\nwant IPC %.4f", second.IPC(), plain.IPC())
	}
	// Same profile, same store: that warm-up is shared. A timing-only
	// variant has its own result key, so the run reaches the warm-up.
	variant := base.WithDirLatency(112)
	again, _ := run(withUrand("two", 2), st, variant)
	if plain, _ := run(withUrand("two", 2), nil, variant); !again.Sampling.CheckpointHit || !reflect.DeepEqual(again.Stats, plain.Stats) {
		t.Error("the same profile's second run did not restore its own warm-up byte for byte")
	}
}
