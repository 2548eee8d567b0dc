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

// TestSampledSweepThroughColdStore pins what the store holds for a
// sampled sweep: one entry per result and nothing else. A sweep of N
// configs over one workload through a cold store writes exactly N
// entries and renders the storeless report; a second workbench over the
// same directory is served the whole sweep without simulating.
func TestSampledSweepThroughColdStore(t *testing.T) {
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
	for i, r := range results {
		if r == nil || r.Sampling == nil {
			t.Fatalf("config %d: no sampling estimate on result %v", i, r)
		}
		if r.Sampling.Samples == 0 {
			t.Errorf("config %d: estimate covers zero samples", i)
		}
	}
	if entries, _, _ := st.Size(); entries != len(cfgs) || st.Misses() != int64(len(cfgs)) {
		t.Errorf("cold store: %d entries after %d misses; want one entry per result (%d)", entries, st.Misses(), len(cfgs))
	}
	for _, s := range jobs {
		if _, err := os.Stat(st.Path(s.StoreKey())); err != nil {
			t.Errorf("no store entry under %s's result key", s.cfg.Name)
		}
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
		t.Errorf("the store changed the report:\n%s\nstoreless:\n%s", got, want)
	}

	again := open()
	wb, _, served := sweep(again)
	if _, simulated, _, _ := wb.Metrics.Counts(); simulated != 0 || again.Hits() != int64(len(cfgs)) || again.Misses() != 0 {
		t.Errorf("second workbench: %d simulations, %d hits, %d misses; want the %d results served",
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
// a sampled run the store holds its result alone, framed by
// sim.ResultFraming, so sim.StateVersion versions it — rewriting the
// entry's version byte turns it into a miss that the rerun heals.
func TestOneFramingVersionsEveryEntry(t *testing.T) {
	dir := t.TempDir()
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	base := fastBench().BaseConfig(1).WithSDCLP()
	run := func() (*sim.Result, *store.Store, RunSpec) {
		st, err := OpenResultStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		wb := NewWorkbench(fastBench())
		wb.Sampling, wb.Store = samplingPlan(), st
		s := wb.Spec(base, id)
		return wb.Run(s), st, s
	}
	first, st, s := run()

	files, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(files) != 1 || filepath.Base(files[0]) != filepath.Base(st.Path(s.StoreKey())) {
		t.Fatalf("store files %v (%v); want the one result", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.ResultFraming().Decode(data); err != nil {
		t.Errorf("%s: %v", filepath.Base(files[0]), err)
	}
	data[8]++ // the framing's version, little-endian
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, st, _ := run()
	if st.Hits() != 0 || st.Misses() != 1 {
		t.Errorf("restamped result: %d hits, %d misses; want a miss", st.Hits(), st.Misses())
	}
	if !reflect.DeepEqual(res.Stats, first.Stats) {
		t.Error("the rerun after a restamped entry counted differently")
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
