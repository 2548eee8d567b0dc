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

// pool returns the worker pool: Parallelism slots, or one per host core
// when it is 0. It is sized on first use — set Parallelism before
// running experiments or deriving a WithProfile workbench, which shares
// it.
func (wb *Workbench) pool() chan struct{} {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if wb.sem == nil {
		n := wb.Parallelism
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		wb.sem = make(chan struct{}, n)
	}
	return wb.sem
}

// acquire claims one worker-pool slot; every simulation (and the graph
// builds it triggers) runs inside a slot, bounding host CPU and the
// peak number of concurrently live graphs.
func (wb *Workbench) acquire() { wb.pool() <- struct{}{} }

// release returns a slot claimed by acquire.
func (wb *Workbench) release() { <-wb.sem }

// mixSpec derives the spec of a Fig. 14 run: cfg under the profile's
// mix windows and the check level, on ids, one per core slot.
func (wb *Workbench) mixSpec(cfg sim.Config, ids ...WorkloadID) RunSpec {
	cfg = cfg.WithWindows(wb.Profile.MixWarmup, wb.Profile.MixMeasure)
	cfg.CheckLevel = wb.CheckLevel
	return newRunSpec(kindMix, cfg, ids, wb.Profile.Name)
}

// runSpecs sends specs, all of shape sh, through the door, returning
// the values in spec order regardless of completion order, so callers
// aggregate exactly as the sequential schedule did. It walks the specs
// in order on the caller, which resolves every memo and store hit
// (tryHit), and starts a goroutine only for a run that must join a fill
// in flight, take the store's claim or simulate (fill). Each run that
// will simulate reaches live, and with it the ledger's plan, as the walk
// passes it — long before the first simulation ends — so the progress
// total and ETA cover the whole sweep from the first line, and a warm
// sweep's progress lines come out in spec order.
func runSpecs[V any](wb *Workbench, specs []RunSpec, sh shape[V]) []V {
	out := make([]V, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		if v, ok := tryHit(wb, &specs[i], sh); ok {
			out[i] = v
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fill(wb, &specs[i], sh)
		}()
	}
	wg.Wait()
	return out
}

// runAll is runSpecs for single-core points.
func (wb *Workbench) runAll(specs []RunSpec) []*sim.Result { return runSpecs(wb, specs, pointShape) }
