// Package obs is the observability layer of the simulator: the
// phase-resolved epoch sampler types, structured run manifests, the
// flight recorder and its Perfetto exporter, the run ledger behind
// progress/ETA lines and the live metrics endpoint, and the pprof/trace
// wiring shared by the cmd/ tools.
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
