package harness

import (
	"fmt"

	"graphmem/internal/energy"
)

// EnergyResult reproduces the Section V-E power considerations: the
// dynamic-energy breakdown of Baseline vs SDC+LP runs and the share
// consumed by the proposed structures.
type EnergyResult struct {
	Workloads []WorkloadID
	// NJPerKI[cfg][w] is nJ per kilo-instruction; cfg 0 = Baseline,
	// 1 = SDC+LP.
	NJPerKI [2][]float64
	// ProposalSharePct[w] is the percent of SDC+LP energy spent in the
	// SDC + LP + SDCDir structures themselves.
	ProposalSharePct []float64
	// AvgBase, AvgSDC, AvgShare summarize.
	AvgBase, AvgSDC, AvgShare float64
}

// Energy integrates the Paper22nm model over Baseline and SDC+LP runs
// (both enqueued on the worker pool together, integrated in subset
// order).
func (wb *Workbench) Energy(subset []WorkloadID) *EnergyResult {
	if subset == nil {
		subset = AllWorkloads()
	}
	model := energy.Paper22nm()
	res := &EnergyResult{Workloads: subset}
	base := wb.BaseConfig()
	sdclp := wb.Profile.BaseConfig(1).WithSDCLP()
	rs := wb.runAll(append(wb.specsFor(base, subset), wb.specsFor(sdclp, subset)...))
	for i := range subset {
		b, s := rs[i], rs[len(subset)+i]
		eb := energy.Integrate(model, &b.Stats, false)
		es := energy.Integrate(model, &s.Stats, true)
		res.NJPerKI[0] = append(res.NJPerKI[0], eb.EnergyPerKiloInstrNJ())
		res.NJPerKI[1] = append(res.NJPerKI[1], es.EnergyPerKiloInstrNJ())
		share := 0.0
		if es.TotalNJ > 0 {
			share = 100 * (es.Of("SDC") + es.Of("LP") + es.Of("SDCDir")) / es.TotalNJ
		}
		res.ProposalSharePct = append(res.ProposalSharePct, share)
	}
	n := float64(len(subset))
	for i := range subset {
		res.AvgBase += res.NJPerKI[0][i] / n
		res.AvgSDC += res.NJPerKI[1][i] / n
		res.AvgShare += res.ProposalSharePct[i] / n
	}
	return res
}

// Table renders the result.
func (r *EnergyResult) Table() *Table {
	t := &Table{ID: "energy", Title: "Dynamic energy (Section V-E model)",
		Header: []string{"Workload", "base nJ/KI", "sdc+lp nJ/KI", "proposal share"}}
	for i, id := range r.Workloads {
		t.AddRow(id.String(),
			fmt.Sprintf("%.0f", r.NJPerKI[0][i]),
			fmt.Sprintf("%.0f", r.NJPerKI[1][i]),
			fmt.Sprintf("%.2f%%", r.ProposalSharePct[i]))
	}
	t.AddRow("average",
		fmt.Sprintf("%.0f", r.AvgBase),
		fmt.Sprintf("%.0f", r.AvgSDC),
		fmt.Sprintf("%.2f%%", r.AvgShare))
	t.Notes = append(t.Notes,
		"per-access energies: LP 0.010/0.015 nJ, SDCDir 0.014/0.019 nJ, SDC 0.026/0.034 nJ (paper Section V-E); hierarchy values are representative 22 nm CACTI-class constants")
	return t
}
