package harness

import (
	"fmt"
	"sort"

	"graphmem/internal/sim"
	"graphmem/internal/stats"
)

// SpeedupResult holds per-workload speed-ups of several schemes over
// the Baseline, plus geometric means — the shape of Figs. 7 and 13.
type SpeedupResult struct {
	ID        string
	Title     string
	Workloads []WorkloadID
	Schemes   []string
	// Speedup[s][w] is scheme s's IPC ratio vs Baseline on workload w.
	Speedup [][]float64
	// GeomeanPct[s] is the percentage geometric-mean improvement.
	GeomeanPct []float64
}

// runSpeedups measures the given configs against the Baseline over the
// workloads (nil = all 36): the one speed-up loop behind Figs. 7 and
// 10-13 and the τ sweep. The Baseline row and the whole scheme grid go
// to the worker pool in one fan-out, so the progress total covers every
// run from the first line, and are aggregated in scheme-major order,
// matching the sequential schedule byte for byte. It also hands back the
// grid's raw results, rs[scheme][workload], for callers that report more
// than IPC.
func (wb *Workbench) runSpeedups(configs []sim.Config, subset []WorkloadID) (*SpeedupResult, [][]*sim.Result) {
	if subset == nil {
		subset = AllWorkloads()
	}
	res := &SpeedupResult{Workloads: subset}
	specs := wb.specsFor(wb.BaseConfig(), subset)
	for _, cfg := range configs {
		specs = append(specs, wb.specsFor(cfg, subset)...)
	}
	all := wb.runAll(specs)
	base, grid := all[:len(subset)], all[len(subset):]
	rs := make([][]*sim.Result, len(configs))
	for k, cfg := range configs {
		rs[k] = grid[k*len(subset) : (k+1)*len(subset)]
		res.Schemes = append(res.Schemes, cfg.Name)
		row := make([]float64, len(subset))
		for i, r := range rs[k] {
			row[i] = r.IPC() / base[i].IPC()
		}
		res.Speedup = append(res.Speedup, row)
		res.GeomeanPct = append(res.GeomeanPct, stats.GeoMeanSpeedup(row))
	}
	return res, rs
}

// Fig7 compares the four prior schemes and SDC+LP against the Baseline
// over the workloads (nil = all 36), reproducing Fig. 7.
func (wb *Workbench) Fig7(subset []WorkloadID) *SpeedupResult {
	base := wb.Profile.BaseConfig(1)
	res, _ := wb.runSpeedups(append(sim.PriorSchemes(base), base.WithSDCLP()), subset)
	res.ID, res.Title = "fig7", "Single-core speed-up over Baseline (Fig. 7)"
	return res
}

// Fig13 compares the Expert Programmer routing against SDC+LP (Fig. 13).
func (wb *Workbench) Fig13(subset []WorkloadID) *SpeedupResult {
	base := wb.Profile.BaseConfig(1)
	res, _ := wb.runSpeedups([]sim.Config{base.WithExpert(), base.WithSDCLP()}, subset)
	res.ID, res.Title = "fig13", "SDC+LP vs Expert Programmer (Fig. 13)"
	return res
}

// SchemeIndex returns the row index of the named scheme, or -1.
func (r *SpeedupResult) SchemeIndex(name string) int {
	for i, s := range r.Schemes {
		if s == name {
			return i
		}
	}
	return -1
}

// Table renders the result sorted by the last scheme's speed-up, as the
// paper's figures are.
func (r *SpeedupResult) Table() *Table {
	t := &Table{ID: r.ID, Title: r.Title}
	t.Header = append([]string{"Workload"}, r.Schemes...)
	order := make([]int, len(r.Workloads))
	for i := range order {
		order[i] = i
	}
	last := len(r.Schemes) - 1
	sort.Slice(order, func(a, b int) bool {
		return r.Speedup[last][order[a]] < r.Speedup[last][order[b]]
	})
	for _, i := range order {
		row := []any{r.Workloads[i].String()}
		for s := range r.Schemes {
			row = append(row, pct(r.Speedup[s][i]))
		}
		t.AddRow(row...)
	}
	geo := []any{"geomean"}
	for s := range r.Schemes {
		geo = append(geo, fmt.Sprintf("%+.1f%%", r.GeomeanPct[s]))
	}
	t.AddRow(geo...)
	return t
}
