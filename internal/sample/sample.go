// Package sample implements the statistical sampling engine of ROADMAP
// item 2: SMARTS-style interleaving of short detailed-simulation
// samples with fast functional warming.
//
// The package is deliberately substrate-free: it knows about schedules
// (Plan) and per-sample statistics (Estimate) — never about caches,
// cores or disks. internal/sim owns the warm walk; this package
// supplies the arithmetic around it.
package sample

import (
	"fmt"
	"strconv"
	"strings"

	"graphmem/internal/stats"
)

// Plan is the deterministic sample schedule inside one measurement
// window: starting Offset instructions after the window opens, every
// Period instructions the simulator switches to detailed mode for
// DetailWarm + SampleLen instructions — the DetailWarm prefix re-warms
// the structures functional warming cannot reproduce (MSHRs,
// prefetchers, pipeline overlap) and its counters are discarded; only
// the trailing SampleLen instructions are measured. The rest of the
// window is functionally warmed. All values are in retired
// instructions. The offset is seedless — a fixed, reproducible phase
// shift rather than a random one — so sampled runs are
// byte-deterministic like everything else in the repository.
type Plan struct {
	Period     int64 `json:"period"`
	SampleLen  int64 `json:"sample_len"`
	Offset     int64 `json:"offset"`
	DetailWarm int64 `json:"detail_warm"`
}

// Enabled reports whether the plan describes an active sampler.
func (p Plan) Enabled() bool { return p.Period > 0 }

// Valid reports whether the plan is self-consistent: a positive period,
// a detailed interval no longer than the period, and an offset inside
// the period. DetailWarm+SampleLen <= Period is tested as a difference,
// which cannot overflow once Period > 0 and DetailWarm >= 0.
func (p Plan) Valid() bool {
	return p.Period > 0 && p.SampleLen > 0 && p.DetailWarm >= 0 &&
		p.SampleLen <= p.Period-p.DetailWarm &&
		p.Offset >= 0 && p.Offset < p.Period
}

// NextStart returns the instruction count (relative to the window base)
// at which sample k's detailed interval begins.
func (p Plan) NextStart(k int) int64 {
	return p.Offset + int64(k)*p.Period
}

// ParsePlan parses a -sample flag value "period,len,offset[,warm]"
// (e.g. "65000,5000,13000" or "50000,5000,10000,5000"). The warm
// component defaults to len — the validated default of the CI gate's
// plans. An empty string parses to the zero (disabled) plan.
func ParsePlan(s string) (Plan, error) {
	if s == "" {
		return Plan{}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) < 3 || len(parts) > 4 {
		return Plan{}, fmt.Errorf("sample: -sample wants \"period,len,offset[,warm]\", got %q", s)
	}
	vals := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("sample: bad -sample component %q: %v", p, err)
		}
		vals[i] = v
	}
	p := Plan{Period: vals[0], SampleLen: vals[1], Offset: vals[2], DetailWarm: vals[1]}
	if len(vals) == 4 {
		p.DetailWarm = vals[3]
	}
	if !p.Valid() {
		return Plan{}, fmt.Errorf("sample: inconsistent plan %+v (need period > 0, warm+len <= period, 0 <= offset < period)", p)
	}
	return p, nil
}

// Estimate is the sampled run's statistical result: per-metric point
// estimates with CLT confidence intervals over the per-sample values,
// plus enough bookkeeping to audit the run (sample count, detailed
// instruction total).
type Estimate struct {
	// Samples is the number of detailed samples the estimate covers
	// (complete samples plus a possible short trailing one).
	Samples int `json:"samples"`
	// DetailedInstructions is the total instruction count simulated in
	// detail inside the measurement window.
	DetailedInstructions int64 `json:"detailed_instructions"`
	// CheckpointHit is retired and always false: runs warm in place.
	// It stays so that Result's codec fingerprint, and with it every
	// stored sampled result, is unchanged; drop it with the next
	// StateVersion bump (ROADMAP item 2(c)).
	CheckpointHit bool `json:"checkpoint_hit,omitempty"`

	IPC          stats.Interval `json:"ipc"`
	L1DemandMPKI stats.Interval `json:"l1_demand_mpki"`
	L2MPKI       stats.Interval `json:"l2_mpki"`
	LLCMPKI      stats.Interval `json:"llc_mpki"`
}

// NewEstimate computes the per-metric intervals over per-sample counter
// deltas. Each delta is one detailed sample's measurement-window slice.
// Every metric is a ratio (IPC = instructions/cycles, MPKI =
// misses/kilo-instruction), so the point estimates are ratio estimators
// over the pooled samples — the plain mean of per-sample ratios would
// be Jensen-biased for phased workloads like BFS, whose per-sample IPC
// swings by an order of magnitude — with delta-method confidence
// intervals (stats.NewRatioInterval).
func NewEstimate(deltas []stats.CoreStats) Estimate {
	n := len(deltas)
	e := Estimate{Samples: n}
	if n == 0 {
		return e
	}
	instr := make([]float64, n)
	cycles := make([]float64, n)
	l1 := make([]float64, n)
	l2 := make([]float64, n)
	llc := make([]float64, n)
	for i := range deltas {
		d := &deltas[i]
		e.DetailedInstructions += d.Instructions
		instr[i] = float64(d.Instructions)
		cycles[i] = float64(d.Cycles)
		// Per-sample miss counts ×1000, recovered through each metric's
		// own accessor so the estimate can never drift from the
		// full-run definition of the metric.
		l1[i] = d.L1DemandMPKI() * instr[i]
		l2[i] = d.L2.MPKI(d.Instructions) * instr[i]
		llc[i] = d.LLC.MPKI(d.Instructions) * instr[i]
	}
	e.IPC = stats.NewRatioInterval(instr, cycles)
	e.L1DemandMPKI = stats.NewRatioInterval(l1, instr)
	e.L2MPKI = stats.NewRatioInterval(l2, instr)
	e.LLCMPKI = stats.NewRatioInterval(llc, instr)
	return e
}
