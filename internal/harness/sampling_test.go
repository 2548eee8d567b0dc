package harness

import (
	"reflect"
	"slices"
	"testing"

	"graphmem/internal/graph"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
)

// samplingPlan is the fast schedule the workbench tests run under:
// ~6 samples inside fastBench's 300k-instruction window.
func samplingPlan() sample.Plan {
	return sample.Plan{Period: 50_000, SampleLen: 2_000, Offset: 10_000, DetailWarm: 2_000}
}

// TestSampledSweepSharesOneWarmup pins the checkpoint store's purpose:
// a sweep of N configs over one workload, identical in everything the
// warm-up depends on (here: varying only the directory latency),
// performs exactly one functional warm-up. The first run misses and
// captures; the other N-1 hit and restore, whatever order the
// scheduler runs them in.
func TestSampledSweepSharesOneWarmup(t *testing.T) {
	wb := NewWorkbench(fastBench())
	wb.Sampling = samplingPlan()
	store, err := sample.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wb.Checkpoints = store

	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	base := wb.Profile.BaseConfig(1).WithSDCLP()
	cfgs := []sim.Config{
		base.WithDirLatency(28),
		base.WithDirLatency(56),
		base.WithDirLatency(112),
	}
	jobs := make([]RunSpec, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = wb.Spec(cfg, id)
	}
	results := wb.runAll(jobs)

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
	if m, h := store.Misses(), store.Hits(); m != 1 || h != 2 {
		t.Errorf("store saw %d misses / %d hits; want exactly one warm-up (1 miss, 2 hits)", m, h)
	}
	if hits != 2 {
		t.Errorf("%d results marked CheckpointHit; want 2", hits)
	}

	// The three runs memoized under three distinct sampled keys.
	keys := wb.SortedResultKeys()
	if len(keys) != 3 {
		t.Fatalf("memoized %d keys, want 3: %v", len(keys), keys)
	}
	for _, cfg := range cfgs {
		if s := wb.Spec(cfg, id); !s.cfg.Sampling.Enabled() || !slices.Contains(keys, s.Key()) {
			t.Errorf("no memo entry under %s's sampled key %s: %v", cfg.Name, s.Key(), keys)
		}
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

// TestCheckpointKeyNamesTheInput pins the checkpoint address's scope: a
// profile fixes its graphs, so two profiles with the same machine and
// windows but different "urand" graphs must not share a warm-up through
// one store. The second profile's run misses, captures its own state,
// and equals a run that never saw a store.
func TestCheckpointKeyNamesTheInput(t *testing.T) {
	withUrand := func(name string, seed uint64) Profile {
		p := fastBench()
		p.Name = name
		p.Graphs = map[string]GraphSpec{"urand": {Name: "urand", Build: func() *graph.Graph {
			return graph.Urand(1<<14, 1<<17, seed)
		}}}
		return p
	}
	store, err := sample.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := WorkloadID{Kernel: "cc", Graph: "urand"}
	run := func(p Profile, st *sample.Store) *sim.Result {
		wb := NewWorkbench(p)
		wb.Sampling, wb.Checkpoints = samplingPlan(), st
		return wb.RunSingle(p.BaseConfig(1).WithSDCLP(), id)
	}

	run(withUrand("one", 1), store)
	second := run(withUrand("two", 2), store)
	if m, h := store.Misses(), store.Hits(); m != 2 || h != 0 {
		t.Errorf("store saw %d misses / %d hits; want 2 / 0: the profiles hold different graphs", m, h)
	}
	if second.Sampling.CheckpointHit {
		t.Error("profile two restored profile one's warm-up")
	}
	if plain := run(withUrand("two", 2), nil); !reflect.DeepEqual(second.Stats, plain.Stats) {
		t.Errorf("profile two behind a shared store differs from a storeless run:\n got IPC %.4f\nwant IPC %.4f", second.IPC(), plain.IPC())
	}
	// Same profile, same store: that warm-up is shared.
	if again := run(withUrand("two", 2), store); !again.Sampling.CheckpointHit || !reflect.DeepEqual(again.Stats, second.Stats) {
		t.Error("the same profile's second run did not restore its own warm-up byte for byte")
	}
}
