package harness

import (
	"runtime"
	"sync"

	"graphmem/internal/sim"
)

// This file is the parallel run scheduler: a bounded worker pool over
// which experiments enqueue their full run set up front, with
// single-flight deduplication on the run key so two experiments
// requesting the same (config, workload) point share one in-flight run
// instead of racing or double-computing. Individual simulations stay
// single-threaded and deterministic — only the scheduling is
// concurrent — and every aggregation below consumes results in job
// order, so experiment output is byte-identical at any parallelism.

// specsFor derives one single-core spec per workload on a shared
// config (each spec, and with it its key, is derived once, here).
func (wb *Workbench) specsFor(cfg sim.Config, ids []WorkloadID) []RunSpec {
	specs := make([]RunSpec, len(ids))
	for i, id := range ids {
		specs[i] = wb.Spec(cfg, id)
	}
	return specs
}

// workers resolves the worker-pool width: Parallelism if set, else all
// host cores.
func (wb *Workbench) workers() int {
	if wb.Parallelism > 0 {
		return wb.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// acquire claims one worker-pool slot; every simulation (and the graph
// builds it triggers) runs inside a slot, bounding host CPU and the
// peak number of concurrently live graphs. The pool is sized on first
// use — set Parallelism before running experiments.
func (wb *Workbench) acquire() {
	wb.mu.Lock()
	if wb.sem == nil {
		wb.sem = make(chan struct{}, wb.workers())
	}
	sem := wb.sem
	wb.mu.Unlock()
	sem <- struct{}{}
}

// release returns a slot claimed by acquire.
func (wb *Workbench) release() { <-wb.sem }

// acquireN claims up to want worker-pool slots (at least one, at most
// the pool width) and returns the number granted. Weave-parallel
// simulations run their bound phases on that many host goroutines, so
// the claim keeps total host work bounded by -j. Batch acquisitions are
// serialized (batchMu) so two batch claimants can never deadlock by
// each holding a partial claim; single acquires interleave freely. The
// granted count affects wall-clock only — bound–weave results are
// identical at any worker count — so clamping is always safe.
func (wb *Workbench) acquireN(want int) int {
	if want < 1 {
		want = 1
	}
	if w := wb.workers(); want > w {
		want = w
	}
	wb.batchMu.Lock()
	defer wb.batchMu.Unlock()
	for i := 0; i < want; i++ {
		wb.acquire()
	}
	return want
}

// releaseN returns n slots claimed by acquireN.
func (wb *Workbench) releaseN(n int) {
	for i := 0; i < n; i++ {
		wb.release()
	}
}

// mixSpec derives the spec of a Fig. 14 run: cfg under the profile's
// mix windows, the check level and the engine choice — with WeaveJobs
// > 0 the run uses the bound–weave engine — on ids, one per core slot.
func (wb *Workbench) mixSpec(cfg sim.Config, ids ...WorkloadID) RunSpec {
	cfg = cfg.WithWindows(wb.Profile.MixWarmup, wb.Profile.MixMeasure)
	cfg.CheckLevel = wb.CheckLevel
	if wb.WeaveJobs > 0 {
		cfg = cfg.WithBoundWeave(0, 0)
	}
	return newRunSpec(kindMix, cfg, ids, wb.Profile.Name)
}

// acquireSim claims the pool slots for one simulation of cfg and
// returns it with the slot count to release: one slot for the serial
// engine, up to WeaveJobs for bound–weave, whose worker count is the
// granted claim.
func (wb *Workbench) acquireSim(cfg sim.Config) (sim.Config, int) {
	if cfg.Quantum == 0 {
		wb.acquire()
		return cfg, 1
	}
	cfg.WeaveWorkers = wb.acquireN(wb.WeaveJobs)
	return cfg, cfg.WeaveWorkers
}

// planJobs registers the runs that will actually execute with the
// progress reporter: memoized, already-in-flight, and disk-store-held
// keys are excluded (they self-report as cached on completion), as are
// duplicates within the list, so done/total and the ETA stay
// consistent however much of a sweep earlier experiments (or earlier
// processes, via the store) already computed.
func (wb *Workbench) planJobs(specs []RunSpec) {
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if seen[s.key] || wb.runs.has(s.key) {
			continue
		}
		seen[s.key] = true
		if wb.storeEligible(s.cfg) && wb.Store.Contains(s.StoreKey()) {
			continue
		}
		wb.Reporter.Plan(1)
		wb.pointMetrics(s).Plan(1)
	}
}

// runSpecs plans the specs, of any one shape, and sends each through
// its door (Run, RunMix) across the worker pool, returning the values
// in spec order regardless of completion order, so callers aggregate
// exactly as the sequential schedule did.
func runSpecs[V any](wb *Workbench, specs []RunSpec, run func(RunSpec) V) []V {
	wb.planJobs(specs)
	out := make([]V, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = run(specs[i])
		}()
	}
	wg.Wait()
	return out
}

// runAll is runSpecs for single-core points.
func (wb *Workbench) runAll(specs []RunSpec) []*sim.Result { return runSpecs(wb, specs, wb.Run) }

// baselineIPCs returns the Baseline IPC of every workload in subset,
// scheduling anything not yet memoized on the worker pool. It is the
// shared first phase of every speed-up experiment (Figs. 7, 10-13 and
// the τ sweep).
func (wb *Workbench) baselineIPCs(subset []WorkloadID) []float64 {
	rs := wb.runAll(wb.specsFor(wb.BaseConfig(), subset))
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.IPC()
	}
	return out
}
