package harness

import (
	"encoding/json"
	"fmt"

	"graphmem/internal/check"
	"graphmem/internal/mem"
	"graphmem/internal/obs"
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
// paper uses cc.friendster). The profiling run — a single-core run with
// a load observer attached — goes through the same door as every
// simulation point under its own fig3-kind key: memoized in process,
// and with a result store attached the derived profile is cached on
// disk, so warm sweeps skip the run entirely.
func (wb *Workbench) Fig3(id WorkloadID) *Fig3Result {
	s := newRunSpec(kindFig3, wb.BaseConfig(), []WorkloadID{id}, wb.Profile.Name)
	wb.planJobs([]RunSpec{s})
	return through(wb, s, fig3Shape, func(cfg sim.Config, ws []sim.Workload) (*Fig3Result, check.Summary) {
		sys := sim.NewSystem(cfg, ws)
		prof := trace.NewStrideDRAMProfiler()
		sys.Observer = func(coreID int, pc uint64, blk mem.BlockAddr, served mem.ServedBy) {
			prof.Observe(pc, blk, served)
		}
		r := sys.RunCore0(ws[0])
		res := &Fig3Result{Workload: id}
		for b := 0; b < trace.StrideBuckets; b++ {
			res.Labels = append(res.Labels, trace.BucketLabel(b))
			res.Prob = append(res.Prob, prof.DRAMProbability(b))
			res.Samples = append(res.Samples, prof.Samples(b))
		}
		return res, r.Check
	})
}

// fig3Shape carries a profile through the store as JSON.
var fig3Shape = shape[*Fig3Result]{
	encode: func(r *Fig3Result) ([]byte, error) { return json.Marshal(r) },
	decode: func(payload []byte, s RunSpec) (*Fig3Result, bool) {
		res := new(Fig3Result)
		err := json.Unmarshal(payload, res)
		return res, err == nil && res.Workload == s.ids[0] && len(res.Labels) > 0
	},
	describe: func(*Fig3Result) (string, float64, *obs.RecSummary) { return "profiled", 0, nil },
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
