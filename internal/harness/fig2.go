package harness

import "fmt"

// Fig2Result holds the baseline MPKI characterization (Fig. 2): the
// L1D/L2C/LLC demand MPKI of every workload on the Baseline machine.
type Fig2Result struct {
	Workloads    []WorkloadID
	L1D, L2, LLC []float64
	// Avg holds the arithmetic means, as the paper quotes (53.2 / 44.5
	// / 41.8 at paper scale).
	AvgL1D, AvgL2, AvgLLC float64
	// DRAMFraction is the fraction of L1D misses ultimately served by
	// DRAM (the paper's 78.6% finding).
	DRAMFraction float64
}

// Fig2 runs the baseline MPKI characterization over the given
// workloads (nil = all 36). Runs execute across the worker pool; the
// aggregation consumes them in subset order.
func (wb *Workbench) Fig2(subset []WorkloadID) *Fig2Result {
	if subset == nil {
		subset = AllWorkloads()
	}
	res := &Fig2Result{Workloads: subset}
	rs := wb.runAll(wb.specsFor(wb.BaseConfig(), subset))
	var dramServed, missServed int64
	for _, r := range rs {
		s := &r.Stats
		res.L1D = append(res.L1D, s.L1D.MPKI(s.Instructions))
		res.L2 = append(res.L2, s.L2.MPKI(s.Instructions))
		res.LLC = append(res.LLC, s.LLC.MPKI(s.Instructions))
		dramServed += s.ServedDRAM
		missServed += s.ServedDRAM + s.ServedL2 + s.ServedLLC + s.ServedRemote
	}
	for i := range subset {
		res.AvgL1D += res.L1D[i]
		res.AvgL2 += res.L2[i]
		res.AvgLLC += res.LLC[i]
	}
	n := float64(len(subset))
	res.AvgL1D /= n
	res.AvgL2 /= n
	res.AvgLLC /= n
	if missServed > 0 {
		res.DRAMFraction = float64(dramServed) / float64(missServed)
	}
	return res
}

// Table renders the result.
func (r *Fig2Result) Table() *Table {
	t := &Table{ID: "fig2", Title: "Baseline MPKI per cache level (Fig. 2)",
		Header: []string{"Workload", "L1D", "L2C", "LLC"}}
	for i, id := range r.Workloads {
		t.AddRow(id.String(), fmt.Sprintf("%.1f", r.L1D[i]), fmt.Sprintf("%.1f", r.L2[i]), fmt.Sprintf("%.1f", r.LLC[i]))
	}
	t.AddRow("average", fmt.Sprintf("%.1f", r.AvgL1D), fmt.Sprintf("%.1f", r.AvgL2), fmt.Sprintf("%.1f", r.AvgLLC))
	t.Notes = append(t.Notes,
		fmt.Sprintf("%.1f%% of L1D misses are served by DRAM (paper: 78.6%%)", r.DRAMFraction*100))
	return t
}
