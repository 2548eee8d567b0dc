package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"graphmem/internal/check"
	"graphmem/internal/sample"
	"graphmem/internal/stats"
)

// SchemaVersion identifies the manifest layout; bump on breaking
// changes so downstream tooling can dispatch.
const SchemaVersion = 1

// RunConfig is the machine-configuration summary embedded in a
// manifest. It is deliberately a plain struct (not sim.Config) so obs
// stays import-cycle-free; sim.Config.ManifestInfo() produces it.
type RunConfig struct {
	Name          string `json:"name"`
	Cores         int    `json:"cores"`
	Routing       string `json:"routing"`
	L1DBytes      int    `json:"l1d_bytes"`
	SDCBytes      int    `json:"sdc_bytes"`
	L2Bytes       int    `json:"l2_bytes"`
	LLCBytes      int    `json:"llc_bytes"`
	Warmup        int64  `json:"warmup_instr"`
	Measure       int64  `json:"measure_instr"`
	EpochInterval int64  `json:"epoch_interval"`
	// Sampling-engine schedule (internal/sample); all omitted — keeping
	// the manifest bytes identical to today — unless sampling was on.
	SamplePeriod int64 `json:"sample_period,omitempty"`
	SampleLen    int64 `json:"sample_len,omitempty"`
	SampleOffset int64 `json:"sample_offset,omitempty"`
	SampleWarm   int64 `json:"sample_warm,omitempty"`
}

// Derived collects the headline metrics computed from the final
// counters, so artifact consumers never re-derive them inconsistently.
type Derived struct {
	IPC            float64 `json:"ipc"`
	AvgLoadLatency float64 `json:"avg_load_latency"`
	L1DMPKI        float64 `json:"l1d_mpki"`
	SDCMPKI        float64 `json:"sdc_mpki"`
	L2MPKI         float64 `json:"l2_mpki"`
	LLCMPKI        float64 `json:"llc_mpki"`
	L1DemandMPKI   float64 `json:"l1_demand_mpki"`
	LPAverse       float64 `json:"lp_averse_frac"`
	DRAMRowHit     float64 `json:"dram_row_hit_rate"`
	DRAMFrac       float64 `json:"dram_frac"`
	DTLBMissRate   float64 `json:"dtlb_miss_rate"`
	STLBMissRate   float64 `json:"stlb_miss_rate"`
}

// DeriveMetrics computes the Derived block from final window counters.
func DeriveMetrics(s *stats.CoreStats) Derived {
	return Derived{
		IPC:            s.IPC(),
		AvgLoadLatency: s.AvgLoadLatency(),
		L1DMPKI:        s.L1D.MPKI(s.Instructions),
		SDCMPKI:        s.SDC.MPKI(s.Instructions),
		L2MPKI:         s.L2.MPKI(s.Instructions),
		LLCMPKI:        s.LLC.MPKI(s.Instructions),
		L1DemandMPKI:   s.L1DemandMPKI(),
		LPAverse:       s.LPAverseFraction(),
		DRAMRowHit:     s.DRAMRowHitRate(),
		DRAMFrac:       s.DRAMFraction(),
		DTLBMissRate:   s.DTLB.MissRate(),
		STLBMissRate:   s.STLB.MissRate(),
	}
}

// RuntimeInfo captures the Go runtime state of the producing process —
// enough to compare memory footprints and host shapes across sweep
// artifacts.
type RuntimeInfo struct {
	GoVersion       string `json:"go_version"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
	NumCPU          int    `json:"num_cpu"`
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
}

// CaptureRuntime snapshots the current process runtime state.
func CaptureRuntime() RuntimeInfo {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeInfo{
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
	}
}

// Manifest is the machine-readable record of one run (or one sweep):
// what ran, on what machine configuration, every final counter, the
// derived headline metrics, the epoch time series when sampling was on,
// and enough provenance (tool, wall clock, runtime) to diff artifacts
// across commits.
type Manifest struct {
	SchemaVersion int       `json:"schema_version"`
	Tool          string    `json:"tool"`
	CreatedAt     time.Time `json:"created_at"`
	WallClockSec  float64   `json:"wall_clock_sec"`
	Profile       string    `json:"profile"`
	Workload      string    `json:"workload"`
	// RunKey is the run's structural identity (harness.RunSpec.Key),
	// the key the memo, the result store and gmserved know it by.
	RunKey string    `json:"run_key,omitempty"`
	Config RunConfig `json:"config"`
	// Reruns counts kernel restarts needed to fill the windows.
	Reruns int `json:"reruns"`
	// Final holds the measurement-window counter deltas verbatim.
	Final stats.CoreStats `json:"final"`
	// Derived repeats the headline metrics computed from Final.
	Derived Derived `json:"derived"`
	// Epochs is the per-epoch series (omitted when sampling was off).
	Epochs []EpochSample `json:"epochs,omitempty"`
	// Check is the differential-checker outcome (omitted when the run
	// was unchecked).
	Check *check.Summary `json:"check,omitempty"`
	// FlightRecorder is the memory-hierarchy flight-recorder summary
	// (omitted when the recorder was off).
	FlightRecorder *RecSummary `json:"flight_recorder,omitempty"`
	// Sampling is the statistical-sampling estimate with confidence
	// intervals (omitted when the sampler was off; when present, Final
	// holds the sum of the detailed samples' deltas).
	Sampling *sample.Estimate `json:"sampling,omitempty"`
	// Experiments lists the experiment ids covered by a sweep manifest
	// (gmreport -out); empty for single runs.
	Experiments []string    `json:"experiments,omitempty"`
	Runtime     RuntimeInfo `json:"runtime"`
}

// NewManifest starts a manifest for the named tool, stamping schema
// version and creation time.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		SchemaVersion: SchemaVersion,
		Tool:          tool,
		CreatedAt:     time.Now().UTC(),
	}
}

// Finalize stamps the wall clock (from the given start time) and the
// runtime snapshot; call it once, immediately before writing.
func (m *Manifest) Finalize(start time.Time) *Manifest {
	m.WallClockSec = time.Since(start).Seconds()
	m.Runtime = CaptureRuntime()
	return m
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
