// Package obs is the observability layer of the simulator: the
// phase-resolved epoch sampler types, structured run manifests, the
// JSONL/CSV exporters that turn sweeps into greppable artifacts, the
// run ledger behind progress/ETA lines and the live metrics endpoint,
// and the pprof/trace wiring shared by the cmd/ tools.
//
// The package deliberately never imports internal/sim, so that
// internal/sim can embed its types in results without an import cycle.
package obs

import "graphmem/internal/stats"

// EpochSample is one epoch of the per-core telemetry time series: the
// counter deltas accumulated between two instruction-count boundaries
// inside the measurement window. Samples are produced by the sim core
// loop when Config.EpochInterval > 0; the final epoch of a window may
// be shorter than the interval (it is closed by the window end), and an
// epoch may exceed the interval by the instruction count of the record
// that crossed the boundary.
type EpochSample struct {
	// Index is the zero-based epoch number within the window.
	Index int `json:"index"`
	// StartInstr/EndInstr are the core's cumulative retired-instruction
	// counts at the epoch boundaries, so EndInstr-StartInstr is the
	// epoch's instruction total and consecutive samples tile the
	// measurement window exactly.
	StartInstr int64 `json:"start_instr"`
	EndInstr   int64 `json:"end_instr"`
	// Stats holds the counter deltas for this epoch only.
	Stats stats.CoreStats `json:"stats"`
}

// Instructions returns the instructions retired in this epoch.
func (e *EpochSample) Instructions() int64 { return e.EndInstr - e.StartInstr }

// EpochMetrics is the derived per-epoch view the exporters emit: the
// phase-resolved curves (IPC, MPKI ladders, LP routing mix, DRAM row
// behaviour) the paper's characterization figures are built from.
type EpochMetrics struct {
	Epoch        int     `json:"epoch"`
	StartInstr   int64   `json:"start_instr"`
	Instructions int64   `json:"instructions"`
	Cycles       int64   `json:"cycles"`
	IPC          float64 `json:"ipc"`
	L1DMPKI      float64 `json:"l1d_mpki"`
	SDCMPKI      float64 `json:"sdc_mpki"`
	L2MPKI       float64 `json:"l2_mpki"`
	LLCMPKI      float64 `json:"llc_mpki"`
	LPAverse     float64 `json:"lp_averse_frac"`
	DRAMRowHit   float64 `json:"dram_row_hit_rate"`
	DRAMFrac     float64 `json:"dram_frac"`
	ServedDRAM   int64   `json:"served_dram"`
	ServedSDC    int64   `json:"served_sdc"`
}

// Metrics derives the exported per-epoch curve point.
func (e *EpochSample) Metrics() EpochMetrics {
	s := &e.Stats
	return EpochMetrics{
		Epoch:        e.Index,
		StartInstr:   e.StartInstr,
		Instructions: e.Instructions(),
		Cycles:       s.Cycles,
		IPC:          s.IPC(),
		L1DMPKI:      s.L1D.MPKI(s.Instructions),
		SDCMPKI:      s.SDC.MPKI(s.Instructions),
		L2MPKI:       s.L2.MPKI(s.Instructions),
		LLCMPKI:      s.LLC.MPKI(s.Instructions),
		LPAverse:     s.LPAverseFraction(),
		DRAMRowHit:   s.DRAMRowHitRate(),
		DRAMFrac:     s.DRAMFraction(),
		ServedDRAM:   s.ServedDRAM,
		ServedSDC:    s.ServedSDC,
	}
}

// SumInstructions returns the total instructions covered by the series;
// it equals the measured window when sampling was active for the whole
// window.
func SumInstructions(epochs []EpochSample) int64 {
	var n int64
	for i := range epochs {
		n += epochs[i].Instructions()
	}
	return n
}
