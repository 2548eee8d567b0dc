package obs

import (
	"encoding/json"
	"io"
	"path/filepath"

	"graphmem/internal/mem"
	"graphmem/internal/store"
)

// Perfetto export: the flight recorder's occupancy timeline rendered as
// Chrome trace-event JSON (the legacy format Perfetto and
// chrome://tracing both load). Each run becomes one trace "process"
// whose counter tracks plot the timeline: served-by provenance and LP
// decisions as per-interval deltas (so the track's sum over the window
// equals the recorder's — and therefore the measurement window's —
// totals), MSHR fill / DRAM bank and bus state as instantaneous gauges.
// Timestamps are CPU cycles interpreted as microseconds, which keeps
// relative spacing faithful; absolute wall time is not modelled.

// TraceRun names one run's recorder summary for export.
type TraceRun struct {
	// Name labels the trace process ("Baseline/pr.kron").
	Name string
	// Rec is the run's flight-recorder summary; runs with a nil Rec or
	// no samples are skipped.
	Rec *RecSummary
}

// traceEvent is one Chrome trace-event object. Ph "M" carries process
// metadata, ph "C" a counter sample.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace-event JSON shape.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// counterDef maps one counter track to the sample fields it plots.
// cumulative series are differenced between consecutive samples.
type counterDef struct {
	track      string
	cumulative bool
	series     func(s *OccSample) map[string]int64
}

// perfettoCounters is the fixed track layout of the export.
var perfettoCounters = []counterDef{
	{track: "served (loads/interval)", cumulative: true, series: func(s *OccSample) map[string]int64 {
		out := make(map[string]int64, NumLevels)
		for lv := range s.Served {
			if s.Served[lv] != 0 {
				out[mem.ServedBy(lv).String()] = s.Served[lv]
			}
		}
		return out
	}},
	{track: "lp decisions/interval", cumulative: true, series: func(s *OccSample) map[string]int64 {
		return map[string]int64{"averse": s.LPAverse, "friendly": s.LPFriendly}
	}},
	{track: "dram rows/interval", cumulative: true, series: func(s *OccSample) map[string]int64 {
		return map[string]int64{"row_hits": s.DRAMRowHits, "row_misses": s.DRAMRowMisses}
	}},
	{track: "mshr in-flight", series: func(s *OccSample) map[string]int64 {
		out := make(map[string]int64, 4)
		for lv := range s.MSHR {
			if s.MSHR[lv] != 0 {
				out[mem.ServedBy(lv).String()] = int64(s.MSHR[lv])
			}
		}
		return out
	}},
	{track: "dram occupancy", series: func(s *OccSample) map[string]int64 {
		return map[string]int64{
			"busy_banks":  int64(s.DRAMBusyBanks),
			"bus_backlog": s.DRAMBusBacklog,
		}
	}},
}

// runEvents renders one run's samples into trace events under pid.
func runEvents(pid int, run TraceRun) []traceEvent {
	evs := []traceEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": run.Name},
	}}
	samples := run.Rec.Samples
	for _, def := range perfettoCounters {
		for i := range samples {
			cur := def.series(&samples[i])
			args := make(map[string]any, len(cur))
			if def.cumulative {
				if i == 0 {
					continue // the window-start baseline anchors the first delta
				}
				prev := def.series(&samples[i-1])
				for k, v := range cur {
					args[k] = v - prev[k]
				}
			} else {
				for k, v := range cur {
					args[k] = v
				}
			}
			if len(args) == 0 {
				continue
			}
			evs = append(evs, traceEvent{
				Name: def.track, Ph: "C", Ts: samples[i].Cycle, Pid: pid, Args: args,
			})
		}
	}
	return evs
}

// WritePerfetto renders the runs' occupancy timelines as Chrome
// trace-event JSON. Runs without recorder samples are skipped.
func WritePerfetto(w io.Writer, runs []TraceRun) error {
	tf := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	pid := 0
	for _, run := range runs {
		if run.Rec == nil || len(run.Rec.Samples) == 0 {
			continue
		}
		pid++
		tf.TraceEvents = append(tf.TraceEvents, runEvents(pid, run)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&tf)
}

// WritePerfettoFile publishes the trace at path atomically.
func WritePerfettoFile(path string, runs []TraceRun) error {
	return store.WriteFileAtomic(filepath.Dir(path), path, func(w io.Writer) error { return WritePerfetto(w, runs) })
}
