package harness

import (
	"fmt"

	"graphmem/internal/obs"
	"graphmem/internal/sim"
)

// Latency breakdown ("latency"): the flight recorder's load-to-use
// percentiles and served-by provenance for Baseline and SDC+LP on each
// workload. The recorder is part of a run's identity (see RunSpec), so
// this experiment never poisons — and is never served by —
// the unrecorded runs the paper's tables are built from.

// LatencyRow is one (workload, config) recorder outcome.
type LatencyRow struct {
	Workload WorkloadID
	Config   string
	Rec      *obs.RecSummary
}

// LatencyResult holds the latency-breakdown sweep.
type LatencyResult struct {
	ID    string
	Title string
	Rows  []LatencyRow
}

// LatencyBreakdown runs Baseline and SDC+LP with the flight recorder
// over the workloads (nil = all 36) and reports load-to-use latency
// percentiles with DRAM pressure per run.
func (wb *Workbench) LatencyBreakdown(subset []WorkloadID) *LatencyResult {
	if subset == nil {
		subset = AllWorkloads()
	}
	base := wb.Profile.BaseConfig(1)
	configs := []sim.Config{
		base.WithFlightRecorder(0),
		base.WithSDCLP().WithFlightRecorder(0),
	}
	var specs []RunSpec
	for _, cfg := range configs {
		specs = append(specs, wb.specsFor(cfg, subset)...)
	}
	rs := wb.runAll(specs)

	res := &LatencyResult{
		ID:    "latency",
		Title: "Load-to-use latency breakdown (flight recorder)",
	}
	// Workload-major so a workload's Baseline and SDC+LP rows sit
	// side by side.
	for i, id := range subset {
		for k, cfg := range configs {
			res.Rows = append(res.Rows, LatencyRow{
				Workload: id,
				Config:   cfg.Name,
				Rec:      rs[k*len(subset)+i].Recorder,
			})
		}
	}
	return res
}

// Table renders the breakdown.
func (r *LatencyResult) Table() *Table {
	t := &Table{ID: r.ID, Title: r.Title}
	t.Header = []string{
		"Workload", "Config", "Loads",
		"p50", "p90", "p99", "mean", "max",
		"DRAM%", "DRAM p99", "MSHR stall cyc",
	}
	for _, row := range r.Rows {
		rec := row.Rec
		if rec == nil {
			t.AddRow(row.Workload.String(), row.Config, "-", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		h := rec.LoadToUse
		dramPct := 0.0
		if h.Count > 0 {
			dramPct = 100 * float64(rec.ServedTotal("DRAM")) / float64(h.Count)
		}
		var stallCycles int64
		for _, m := range rec.MSHR {
			stallCycles += m.StallCycles
		}
		t.AddRow(
			row.Workload.String(), row.Config,
			fmt.Sprint(h.Count),
			fmt.Sprint(h.P50), fmt.Sprint(h.P90), fmt.Sprint(h.P99),
			fmt.Sprintf("%.1f", h.Mean), fmt.Sprint(h.Max),
			fmt.Sprintf("%.1f", dramPct),
			fmt.Sprint(rec.DRAM.Latency.P99),
			fmt.Sprint(stallCycles),
		)
	}
	t.Notes = append(t.Notes,
		"latencies in CPU cycles; p50/p90/p99 are log2-bucket upper bounds capped at the observed max")
	return t
}
