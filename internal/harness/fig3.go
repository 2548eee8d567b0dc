package harness

import (
	"encoding/json"
	"fmt"

	"graphmem/internal/mem"
	"graphmem/internal/sim"
	"graphmem/internal/trace"
)

// Fig3Result is the stride/DRAM-probability characterization of Fig. 3:
// for each stride interval, the probability that an access with that
// stride (vs the previous access by the same PC) was served by DRAM.
type Fig3Result struct {
	Workload WorkloadID
	Labels   []string
	Prob     []float64 // -1 for empty buckets
	Samples  []int64
}

// Fig3 reproduces the characterization on the given workload (the
// paper uses cc.friendster). The profiling run is never memoized in
// process (it carries a custom observer, not a sim.Result), but with a
// result store attached the derived profile is cached on disk under
// the run's fig3-kind key, so warm sweeps skip the run entirely.
func (wb *Workbench) Fig3(id WorkloadID) *Fig3Result {
	cfg := wb.BaseConfig()
	if wb.storeEligible(cfg) {
		spec := newRunSpec(kindFig3, cfg, id, wb.Profile.Name)
		skey := spec.StoreKey()
		payload, commit := wb.Store.Acquire(skey)
		if payload != nil {
			if res := storedFig3(payload, id); res != nil {
				_ = commit(nil)
				wb.Reporter.Cached(fmt.Sprintf("profiled %-22s %-14s", id, cfg.Name), "(store)")
				wb.Metrics.RunStoreHit("fig3/" + id.String())
				return res
			}
			// Fall through to the live path with the commit still held:
			// the rerun republishes under the key, healing the entry.
			wb.Store.Reject(skey)
		}
		// Release the claim without publishing if the live run panics.
		committed := false
		defer func() {
			if !committed {
				_ = commit(nil)
			}
		}()
		res := wb.fig3Live(id, cfg)
		committed = true
		data, err := json.Marshal(res)
		if err == nil {
			err = commit(data)
		} else {
			_ = commit(nil)
		}
		if err != nil {
			wb.log("result store write failed for %s: %v", spec.key, err)
		}
		return res
	}
	return wb.fig3Live(id, cfg)
}

// fig3Live executes the profiling run inside a worker-pool slot, like
// every other simulation (-j bounds it too). It reports to the progress
// reporter but not to Metrics' run counters, which count simulation
// points.
func (wb *Workbench) fig3Live(id WorkloadID, cfg sim.Config) *Fig3Result {
	wb.Reporter.Plan(1)
	wb.acquire()
	defer wb.release()
	w := wb.Workload(id, 0)
	sys := sim.NewSystem(cfg, []sim.Workload{w})
	prof := trace.NewStrideDRAMProfiler()
	sys.Observer = func(coreID int, pc uint64, blk mem.BlockAddr, served mem.ServedBy) {
		prof.Observe(pc, blk, served)
	}
	finish := wb.Reporter.StartRun(fmt.Sprintf("profiled %-22s %-14s", id, cfg.Name))
	r := sys.RunCore0(w)
	finish(fmt.Sprintf("IPC=%.3f", r.IPC()))
	wb.recordCheck(r.Check)
	res := &Fig3Result{Workload: id}
	for b := 0; b < trace.StrideBuckets; b++ {
		res.Labels = append(res.Labels, trace.BucketLabel(b))
		res.Prob = append(res.Prob, prof.DRAMProbability(b))
		res.Samples = append(res.Samples, prof.Samples(b))
	}
	return res
}

// Table renders the result.
func (r *Fig3Result) Table() *Table {
	t := &Table{ID: "fig3", Title: fmt.Sprintf("P(served by DRAM) per stride interval, %s (Fig. 3)", r.Workload),
		Header: []string{"Stride (blocks)", "P(DRAM)", "Samples"}}
	for i, l := range r.Labels {
		p := "-"
		if r.Prob[i] >= 0 {
			p = fmt.Sprintf("%.1f%%", r.Prob[i]*100)
		}
		t.AddRow(l, p, r.Samples[i])
	}
	t.Notes = append(t.Notes, "paper: 11.6% for strides in (1e0,1e1], 97.6% for (1e5,1e6]")
	return t
}
