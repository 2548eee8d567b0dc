package harness

import (
	"fmt"
	"sort"
)

// Fig89Result compares cache-pressure MPKI between Baseline and SDC+LP:
// Fig. 8 reports L2C and LLC MPKI, Fig. 9 the first-level (L1D and
// L1D+SDC) MPKI.
type Fig89Result struct {
	Workloads []WorkloadID
	// Baseline MPKI.
	BaseL1D, BaseL2, BaseLLC []float64
	// SDC+LP MPKI (L1D and SDC reported separately; Fig. 9 stacks them).
	SdcL1D, SdcSDC, SdcL2, SdcLLC []float64
	// Speed-up used for the paper's sort order.
	Speedup []float64
	// Averages.
	AvgBaseL1D, AvgBaseL2, AvgBaseLLC         float64
	AvgSdcL1D, AvgSdcSDC, AvgSdcL2, AvgSdcLLC float64
}

// Fig89 runs the Baseline-vs-SDC+LP MPKI comparison (Figs. 8 and 9
// share the same runs). Both configurations' runs are enqueued on the
// worker pool together and aggregated in subset order.
func (wb *Workbench) Fig89(subset []WorkloadID) *Fig89Result {
	if subset == nil {
		subset = AllWorkloads()
	}
	res := &Fig89Result{Workloads: subset}
	base := wb.BaseConfig()
	sdclp := wb.Profile.BaseConfig(1).WithSDCLP()
	rs := wb.runAll(append(wb.specsFor(base, subset), wb.specsFor(sdclp, subset)...))
	for i := range subset {
		b, s := rs[i], rs[len(subset)+i]
		bi, si := b.Stats.Instructions, s.Stats.Instructions
		res.BaseL1D = append(res.BaseL1D, b.Stats.L1D.MPKI(bi))
		res.BaseL2 = append(res.BaseL2, b.Stats.L2.MPKI(bi))
		res.BaseLLC = append(res.BaseLLC, b.Stats.LLC.MPKI(bi))
		res.SdcL1D = append(res.SdcL1D, s.Stats.L1D.MPKI(si))
		res.SdcSDC = append(res.SdcSDC, s.Stats.SDC.MPKI(si))
		res.SdcL2 = append(res.SdcL2, s.Stats.L2.MPKI(si))
		res.SdcLLC = append(res.SdcLLC, s.Stats.LLC.MPKI(si))
		res.Speedup = append(res.Speedup, s.IPC()/b.IPC())
	}
	n := float64(len(subset))
	for i := range subset {
		res.AvgBaseL1D += res.BaseL1D[i] / n
		res.AvgBaseL2 += res.BaseL2[i] / n
		res.AvgBaseLLC += res.BaseLLC[i] / n
		res.AvgSdcL1D += res.SdcL1D[i] / n
		res.AvgSdcSDC += res.SdcSDC[i] / n
		res.AvgSdcL2 += res.SdcL2[i] / n
		res.AvgSdcLLC += res.SdcLLC[i] / n
	}
	return res
}

func (r *Fig89Result) sorted() []int {
	order := make([]int, len(r.Workloads))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.Speedup[order[a]] < r.Speedup[order[b]] })
	return order
}

// Fig8Table renders the L2C/LLC comparison (Fig. 8).
func (r *Fig89Result) Fig8Table() *Table {
	t := &Table{ID: "fig8", Title: "L2C and LLC MPKI, Baseline vs SDC+LP (Fig. 8)",
		Header: []string{"Workload", "base L2C", "base LLC", "sdc+lp L2C", "sdc+lp LLC"}}
	for _, i := range r.sorted() {
		t.AddRow(r.Workloads[i].String(),
			fmt.Sprintf("%.1f", r.BaseL2[i]), fmt.Sprintf("%.1f", r.BaseLLC[i]),
			fmt.Sprintf("%.1f", r.SdcL2[i]), fmt.Sprintf("%.1f", r.SdcLLC[i]))
	}
	t.AddRow("average",
		fmt.Sprintf("%.1f", r.AvgBaseL2), fmt.Sprintf("%.1f", r.AvgBaseLLC),
		fmt.Sprintf("%.1f", r.AvgSdcL2), fmt.Sprintf("%.1f", r.AvgSdcLLC))
	t.Notes = append(t.Notes, "paper averages: L2C 44.5 -> 4.4, LLC 41.8 -> 2.8")
	return t
}

// Fig9Table renders the first-level comparison (Fig. 9).
func (r *Fig89Result) Fig9Table() *Table {
	t := &Table{ID: "fig9", Title: "First-level MPKI, Baseline L1D vs SDC+LP L1D+SDC (Fig. 9)",
		Header: []string{"Workload", "base L1D", "sdc+lp L1D", "sdc+lp SDC", "sdc+lp L1D+SDC"}}
	for _, i := range r.sorted() {
		t.AddRow(r.Workloads[i].String(),
			fmt.Sprintf("%.1f", r.BaseL1D[i]),
			fmt.Sprintf("%.1f", r.SdcL1D[i]),
			fmt.Sprintf("%.1f", r.SdcSDC[i]),
			fmt.Sprintf("%.1f", r.SdcL1D[i]+r.SdcSDC[i]))
	}
	t.AddRow("average",
		fmt.Sprintf("%.1f", r.AvgBaseL1D),
		fmt.Sprintf("%.1f", r.AvgSdcL1D),
		fmt.Sprintf("%.1f", r.AvgSdcSDC),
		fmt.Sprintf("%.1f", r.AvgSdcL1D+r.AvgSdcSDC))
	t.Notes = append(t.Notes, "paper averages: L1D 53.2 -> 7.4, SDC 48.3")
	return t
}
