package harness

import (
	"fmt"

	"graphmem/internal/sim"
	"graphmem/internal/stats"
)

// Fig10Result is the SDC size exploration (Fig. 10): per-size SDC MPKI
// and geomean speed-up.
type Fig10Result struct {
	SizesKB    []int
	AvgSDCMPKI []float64
	GeomeanPct []float64
}

// Fig10 sweeps the SDC size over 8/16/32 KiB with the associativity and
// latency pairings of Section V-B1; the SDC MPKI panel comes from the
// speed-up grid's raw results.
func (wb *Workbench) Fig10(subset []WorkloadID) *Fig10Result {
	res := &Fig10Result{SizesKB: []int{8, 16, 32}}
	var configs []sim.Config
	for _, kb := range res.SizesKB {
		configs = append(configs, wb.Profile.BaseConfig(1).WithSDCLP().WithSDCSize(kb))
	}
	sp, rs := wb.runSpeedups(configs, subset)
	res.GeomeanPct = sp.GeomeanPct
	for _, row := range rs {
		var mpki float64
		for _, r := range row {
			mpki += r.Stats.SDC.MPKI(r.Stats.Instructions)
		}
		res.AvgSDCMPKI = append(res.AvgSDCMPKI, mpki/float64(len(row)))
	}
	return res
}

// Table renders both panels of Fig. 10.
func (r *Fig10Result) Table() *Table {
	t := &Table{ID: "fig10", Title: "SDC size exploration (Fig. 10a/10b)",
		Header: []string{"SDC size", "avg SDC MPKI", "geomean speed-up"}}
	for i, kb := range r.SizesKB {
		t.AddRow(fmt.Sprintf("%d KiB", kb),
			fmt.Sprintf("%.1f", r.AvgSDCMPKI[i]),
			fmt.Sprintf("%+.1f%%", r.GeomeanPct[i]))
	}
	t.Notes = append(t.Notes, "paper: MPKI 50.5/49.1/48.0; 8 KiB performs best due to 1-cycle latency")
	return t
}

// SweepResult is a one-dimensional design sweep (Figs. 11, 12): the
// geomean speed-up per swept value.
type SweepResult struct {
	ID         string
	Title      string
	Param      string
	Values     []string
	GeomeanPct []float64
	Note       string
}

// Table renders the sweep.
func (r *SweepResult) Table() *Table {
	t := &Table{ID: r.ID, Title: r.Title, Header: []string{r.Param, "geomean speed-up"}}
	for i, v := range r.Values {
		t.AddRow(v, fmt.Sprintf("%+.1f%%", r.GeomeanPct[i]))
	}
	if r.Note != "" {
		t.Notes = append(t.Notes, r.Note)
	}
	return t
}

// Fig11 sweeps the LP entry count with a fully-associative table
// (8/16/32/64 entries).
func (wb *Workbench) Fig11(subset []WorkloadID) *SweepResult {
	res := &SweepResult{ID: "fig11", Title: "LP fully-associative entry sweep (Fig. 11)", Param: "entries",
		Note: "paper: 13.7% / 17.9% / 20.7% / 20.7%"}
	var configs []sim.Config
	for _, entries := range []int{8, 16, 32, 64} {
		configs = append(configs, wb.Profile.BaseConfig(1).WithSDCLP().WithLP(entries, entries, 8))
		res.Values = append(res.Values, fmt.Sprint(entries))
	}
	sp, _ := wb.runSpeedups(configs, subset)
	res.GeomeanPct = sp.GeomeanPct
	return res
}

// Fig12 sweeps the LP associativity with 32 entries (direct-mapped, 2-,
// 8-way, fully associative).
func (wb *Workbench) Fig12(subset []WorkloadID) *SweepResult {
	res := &SweepResult{ID: "fig12", Title: "LP associativity sweep, 32 entries (Fig. 12)", Param: "ways",
		Note: "paper: 17.0% / 20.3% / 20.7% / 20.7%; 8-way is near-optimal"}
	var configs []sim.Config
	for _, ways := range []int{1, 2, 8, 32} {
		configs = append(configs, wb.Profile.BaseConfig(1).WithSDCLP().WithLP(32, ways, 8))
		res.Values = append(res.Values, fmt.Sprint(ways))
	}
	sp, _ := wb.runSpeedups(configs, subset)
	res.GeomeanPct = sp.GeomeanPct
	return res
}

// TauResult is the τ_glob sensitivity study of Section V-B3: geomean
// speed-up of the graph suite and of the regular ("SPEC" stand-in)
// suite per threshold.
type TauResult struct {
	Taus       []uint64
	GraphPct   []float64
	RegularPct []float64
}

// RegularWorkloads returns the ids of the regular (SPEC stand-in)
// suite; their Graph field is the pseudo-input "reg".
func RegularWorkloads() []WorkloadID {
	return []WorkloadID{
		{Kernel: "triad", Graph: "reg"},
		{Kernel: "matvec", Graph: "reg"},
		{Kernel: "stencil", Graph: "reg"},
	}
}

// Tau sweeps τ_glob over the graph subset plus the regular suite.
func (wb *Workbench) Tau(subset []WorkloadID, taus []uint64) *TauResult {
	if subset == nil {
		subset = AllWorkloads()
	}
	if taus == nil {
		taus = []uint64{0, 2, 4, 8, 16, 32, 64, 256}
	}
	res := &TauResult{Taus: taus}
	// One id list covers both suites so baselines and every τ point
	// flow through one speed-up grid; the rows split at len(subset).
	ids := append(append([]WorkloadID(nil), subset...), RegularWorkloads()...)
	lp := wb.Profile.BaseConfig(1).LP
	var configs []sim.Config
	for _, tau := range taus {
		configs = append(configs, wb.Profile.BaseConfig(1).WithSDCLP().WithLP(lp.Entries, lp.Ways, tau))
	}
	sp, _ := wb.runSpeedups(configs, ids)
	for _, row := range sp.Speedup {
		res.GraphPct = append(res.GraphPct, stats.GeoMeanSpeedup(row[:len(subset)]))
		res.RegularPct = append(res.RegularPct, stats.GeoMeanSpeedup(row[len(subset):]))
	}
	return res
}

// Table renders the sweep.
func (r *TauResult) Table() *Table {
	t := &Table{ID: "tau", Title: "tau_glob sensitivity (Section V-B3)",
		Header: []string{"tau_glob", "graph geomean", "regular geomean"}}
	for i, tau := range r.Taus {
		t.AddRow(fmt.Sprint(tau),
			fmt.Sprintf("%+.1f%%", r.GraphPct[i]),
			fmt.Sprintf("%+.1f%%", r.RegularPct[i]))
	}
	t.Notes = append(t.Notes, "paper: tau=8 gives +20.3% on GAP while keeping SPEC at +0.5%")
	return t
}
