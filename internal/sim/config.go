// Package sim assembles the full simulated machine of Table I — cores,
// TLBs, L1D/L2/LLC caches with their prefetchers, the SDC + LP + SDCDir
// proposal, an idealized full-map cache directory, and DDR4 DRAM — and
// runs workloads through it in single-core and multi-core modes.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/coherence"
	corepkg "graphmem/internal/core"
	"graphmem/internal/cpu"
	"graphmem/internal/dram"
	"graphmem/internal/obs"
	"graphmem/internal/sample"
)

// RoutingMode selects how memory accesses are routed to the SDC.
type RoutingMode int

// Routing modes.
const (
	// RouteNone disables the SDC entirely (Baseline and prior-work
	// configurations).
	RouteNone RoutingMode = iota
	// RouteLP consults the Large Predictor per access (the proposal).
	RouteLP
	// RouteExpert uses the kernel's per-data-structure annotations
	// (the Expert Programmer baseline of Section V-C).
	RouteExpert
	// RouteBypass classifies with the LP but, instead of an SDC,
	// cache-averse accesses simply bypass the L2 and LLC on their way
	// to DRAM and are not cached anywhere above DRAM — the Selective
	// Cache idea (Gonzalez et al.) the paper's Related Work contrasts
	// against. Isolates the SDC's contribution from pure bypassing.
	RouteBypass
)

// String implements fmt.Stringer.
func (m RoutingMode) String() string {
	switch m {
	case RouteNone:
		return "none"
	case RouteLP:
		return "lp"
	case RouteExpert:
		return "expert"
	case RouteBypass:
		return "bypass"
	default:
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
}

// LLCPolicy selects the shared LLC's replacement policy.
type LLCPolicy int

// LLC replacement policies.
const (
	// LLCLRU is Table I's LRU.
	LLCLRU LLCPolicy = iota
	// LLCSRRIP is SRRIP (related-work comparison; the paper cites
	// RRIP-family policies as struggling with graph workloads).
	LLCSRRIP
	// LLCTOPT is the transpose-driven T-OPT replacement (needs workload
	// oracles).
	LLCTOPT
)

var llcPolicyNames = [...]string{"lru", "srrip", "topt"}

// String implements fmt.Stringer.
func (p LLCPolicy) String() string {
	if p < 0 || int(p) >= len(llcPolicyNames) {
		return fmt.Sprintf("LLCPolicy(%d)", int(p))
	}
	return llcPolicyNames[p]
}

// Config is a full system configuration.
type Config struct {
	// Name labels the configuration in reports ("Baseline", "SDC+LP"...).
	Name string
	// Cores is the number of cores.
	Cores int

	CPU cpu.Config

	// L1D, L2 are per-core private caches (a positive
	// L2.DistillWOCWays makes the L2 a Line Distillation cache); LLC is
	// shared and sized at LLCPerCoreBytes * Cores.
	L1D, L2         cache.Config
	LLCPerCoreBytes int
	LLCWays         int
	LLCLatency      int64
	LLCMSHRs        int
	LLCPolicy       LLCPolicy

	// Routing selects the SDC routing mode; SDC/LP/SDCDir are only
	// used when Routing != RouteNone.
	Routing              RoutingMode
	SDC                  cache.Config
	LP                   corepkg.LPConfig
	SDCDirEntriesPerCore int
	SDCDirWays           int

	// DirLatency is the cache-directory round latency charged to
	// coherence checks (the directory is co-located with the LLC).
	DirLatency int64

	// Prefetchers selects a named prefetcher preset for the competitive
	// baseline suite: "" (the default, Table I's next-line + SPP) or one
	// of prefetchPresets. Validate rejects unknown names.
	Prefetchers string

	// VictimEntries, when positive, attaches a fully-associative
	// victim cache (Jouppi) of that many lines beside the L1D — the
	// conflict-miss-oriented related-work design of Section VI.
	VictimEntries int

	// LPAdaptive replaces the fixed τ_glob with the online-adaptive
	// threshold extension (see core.AdaptiveLP).
	LPAdaptive bool

	DRAM         dram.Config
	DRAMChannels int

	// Warmup and Measure are the per-core instruction windows.
	Warmup, Measure int64

	// EpochInterval, when positive, snapshots the full per-core counter
	// set every EpochInterval retired instructions inside the
	// measurement window, yielding the per-epoch telemetry series in
	// Result.Epochs / MultiResult.Epochs. Zero (the default) disables
	// sampling at no cost to the core loop.
	EpochInterval int64

	// FlightRecorder enables the memory-hierarchy flight recorder
	// (internal/obs.Recorder): per-level load-to-use latency histograms,
	// served-by provenance, MSHR/DRAM occupancy samples and LP decision
	// counts, gathered over the measurement window only. Off (the
	// default) costs one nil compare per hook site and keeps the run
	// bit-identical to an unrecorded one.
	FlightRecorder bool
	// FRInterval is the flight recorder's occupancy-sampling interval in
	// retired instructions. Zero picks Measure/256 (min 1).
	FRInterval int64

	// CheckLevel enables the differential correctness harness
	// (internal/check): check.OracleOnly shadows every block with an
	// architectural version and validates every demand load;
	// check.Full adds periodic cache + SDCDir invariant sweeps. Off
	// (the default) costs one nil compare per hook site and keeps the
	// run bit-identical to an unchecked one.
	CheckLevel check.Level

	// BreakSDCDirInval is a fault-injection hook for testing the
	// checker itself: when set, the L1 demand path that pulls a block
	// out of the local SDC "forgets" to invalidate the SDC copy while
	// still dropping the directory entry — the canonical stale-data
	// bug class the oracle exists to catch. Never set outside tests.
	BreakSDCDirInval bool

	// Sampling, when its Period is positive, selects the statistical
	// sampling engine (internal/sample): the warm-up and the inter-sample
	// gaps run under functional warming (tags/recency/row state updated,
	// no timing), with short detailed samples every Period
	// instructions feeding per-metric confidence intervals. Validate
	// states what it composes with; the zero value (the default) keeps
	// every run byte-identical to an unsampled one.
	Sampling SamplingConfig

	// Quantum, when positive, selects the bound–weave multi-core engine
	// (internal/sim/boundweave.go): cores run in parallel for Quantum
	// dispatch cycles against a frozen view of the shared LLC/DRAM/
	// SDCDir, logging shared-domain events, which a serial weave phase
	// then replays in deterministic (timestamp, core, seq) order. Zero
	// (the default) keeps the legacy serial interleaving engine, whose
	// report bytes are pinned by the golden-report CI gates. Results
	// under bound–weave are identical at any WeaveWorkers count. Set it
	// with WithBoundWeave; no tool or harness path does.
	Quantum int64
	// WeaveWorkers bounds the host goroutines driving bound phases
	// (0 = GOMAXPROCS). It affects wall-clock only, never results (see
	// WallClockOnly).
	WeaveWorkers int
}

// SamplingConfig drives the statistical sampling engine. The embedded
// sample.Plan carries the schedule (Period, SampleLen, seedless
// Offset); MisWarm is the fault-injection hook.
type SamplingConfig struct {
	sample.Plan

	// MisWarm is a fault-injection hook for testing the sampled-vs-full
	// error gate: functional warming still counts instructions but skips
	// every structure touch, so samples run against cold caches and the
	// estimates drift far past the gate's tolerance. Never set outside
	// tests and the CI gate's self-check.
	MisWarm bool
}

// recordInstructions bounds one trace record's instructions (its
// uint16 NonMem prelude plus itself): a window ends up to that far past
// its nominal end, and Validate keeps that end inside int64.
const recordInstructions = math.MaxUint16 + 1

// Validate reports why the configuration cannot run, or nil. It is the
// one statement of how modes compose: NewSystem panics on its error,
// the harness runs a config unsampled when the sampler cannot take it,
// the CLI tools exit 1 with its text and gmserved answers 400.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("sim: core count %d must be >= 1", c.Cores)
	case c.Warmup < 0 || c.Measure < 0:
		return fmt.Errorf("sim: negative instruction window (warmup %d, measure %d)", c.Warmup, c.Measure)
	case c.Measure > math.MaxInt64-recordInstructions-c.Warmup:
		return fmt.Errorf("sim: instruction window end overflows int64 (warmup %d, measure %d)", c.Warmup, c.Measure)
	case c.LLCPolicy < 0 || int(c.LLCPolicy) >= len(llcPolicyNames):
		return fmt.Errorf("sim: unknown LLC policy %d (want %s)", int(c.LLCPolicy), strings.Join(llcPolicyNames[:], "|"))
	case !ValidPrefetchers(c.Prefetchers):
		return fmt.Errorf("sim: unknown prefetcher preset %q (want %s)", c.Prefetchers, strings.Join(PrefetcherPresets(), "|"))
	case c.CPU.BranchMissPenalty < 0:
		return fmt.Errorf("sim: branch-miss penalty %d must be >= 0", c.CPU.BranchMissPenalty)
	case c.EpochInterval < 0:
		return fmt.Errorf("sim: epoch interval %d must be >= 0", c.EpochInterval)
	case c.FRInterval < 0:
		return fmt.Errorf("sim: flight-recorder interval %d must be >= 0", c.FRInterval)
	case !c.Sampling.Enabled():
		return nil
	// The sampler owns the window state machine and the byte-identity
	// contract of the other observation subsystems; it composes with
	// none of them.
	case !c.Sampling.Valid():
		return fmt.Errorf("sim: invalid sampling plan %+v (need period > 0, warm+len <= period, 0 <= offset < period)", c.Sampling.Plan)
	case c.Cores != 1:
		return errors.New("sim: sampling requires a single-core machine")
	case c.CheckLevel != check.Off:
		return errors.New("sim: sampling cannot run under the checker (it needs detailed execution everywhere)")
	case c.EpochInterval > 0:
		return errors.New("sim: sampling cannot run with epoch telemetry (epochs tile the detailed window)")
	case c.FlightRecorder:
		return errors.New("sim: sampling cannot run with the flight recorder (it taps detailed execution)")
	case c.Quantum > 0:
		return errors.New("sim: sampling cannot run on the bound-weave engine")
	}
	return nil
}

// Cacheable reports why a run of c bypasses the harness memo's disk
// tier (the result store), or nil: a checked run's value is the
// execution itself — serving it from disk would skip the check, and
// its result carries a Check summary unchecked consumers must not
// inherit.
func (c Config) Cacheable() error {
	if c.CheckLevel != check.Off {
		return errors.New("sim: checked runs bypass the result store (the check is the execution)")
	}
	return nil
}

// WithSampling returns a copy running the statistical sampler with a
// measured detailed sample of length instructions every period
// instructions, phase-shifted by offset, each preceded by a discarded
// detailed-warm prefix of the same length (override with
// WithSampleWarm). The Name is unchanged: sampling estimates the same
// configuration, it does not define a new one.
func (c Config) WithSampling(period, length, offset int64) Config {
	c.Sampling.Period = period
	c.Sampling.SampleLen = length
	c.Sampling.Offset = offset
	c.Sampling.DetailWarm = length
	return c
}

// WithSampleWarm returns a copy with the per-sample detailed-warm
// prefix set to n instructions (0 measures from the first detailed
// instruction, maximizing speed at the cost of cold-structure bias).
func (c Config) WithSampleWarm(n int64) Config {
	c.Sampling.DetailWarm = n
	return c
}

// DefaultQuantum is the bound–weave cycle quantum WithBoundWeave picks
// when given 0 (~1k cycles, the ZSim ballpark: long enough to amortize
// the weave barrier, short enough to keep cross-core timing skew small).
const DefaultQuantum = 1024

// WithBoundWeave returns a copy running the bound–weave parallel
// engine with the given cycle quantum (0 picks DefaultQuantum) and
// host worker count (0 = GOMAXPROCS). The Name is unchanged: counters
// depend on the quantum but not on the worker count.
func (c Config) WithBoundWeave(quantum int64, workers int) Config {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	c.Quantum = quantum
	c.WeaveWorkers = workers
	return c
}

// TableI returns the paper's baseline configuration (Table I) for the
// given core count, with the default simulation windows.
func TableI(cores int) Config {
	return Config{
		Name:  "Baseline",
		Cores: cores,
		CPU:   cpu.DefaultConfig(),
		L1D: cache.Config{
			Name: "L1D", SizeBytes: 32 << 10, Ways: 8, Latency: 4, MSHRs: 10,
		},
		L2: cache.Config{
			Name: "L2C", SizeBytes: 1 << 20, Ways: 16, Latency: 10, MSHRs: 16,
		},
		LLCPerCoreBytes: 1408 << 10, // 1.375 MiB
		LLCWays:         11,
		LLCLatency:      56,
		LLCMSHRs:        64,
		SDC: cache.Config{
			Name: "SDC", SizeBytes: 8 << 10, Ways: 2, Latency: 1, MSHRs: 10,
		},
		LP:                   corepkg.DefaultLPConfig(),
		SDCDirEntriesPerCore: 128,
		SDCDirWays:           8,
		DirLatency:           56,
		DRAM:                 dram.DefaultConfig(),
		DRAMChannels:         cores, // Table I provisions DRAM per core
		Warmup:               200_000,
		Measure:              1_000_000,
	}
}

// WithWindows returns a copy with the given warm-up and measurement
// windows (instructions per core).
func (c Config) WithWindows(warmup, measure int64) Config {
	c.Warmup, c.Measure = warmup, measure
	return c
}

// WithEpochInterval returns a copy with epoch telemetry sampling every
// n retired instructions (0 disables).
func (c Config) WithEpochInterval(n int64) Config {
	c.EpochInterval = n
	return c
}

// WithCheck returns a copy running under the given differential-check
// level (see internal/check).
func (c Config) WithCheck(l check.Level) Config {
	c.CheckLevel = l
	return c
}

// WithFlightRecorder returns a copy with the memory-hierarchy flight
// recorder enabled, sampling occupancy every interval retired
// instructions (0 picks Measure/256).
func (c Config) WithFlightRecorder(interval int64) Config {
	c.FlightRecorder = true
	c.FRInterval = interval
	return c
}

// frInterval resolves the effective flight-recorder sampling interval.
func (c Config) frInterval() int64 {
	if c.FRInterval > 0 {
		return c.FRInterval
	}
	if iv := c.Measure / 256; iv > 0 {
		return iv
	}
	return 1
}

// ManifestInfo summarizes the configuration for an obs run manifest.
func (c Config) ManifestInfo() obs.RunConfig {
	return obs.RunConfig{
		Name:              c.Name,
		Cores:             c.Cores,
		Routing:           c.Routing.String(),
		L1DBytes:          c.L1D.SizeBytes,
		SDCBytes:          c.SDC.SizeBytes,
		L2Bytes:           c.L2.SizeBytes,
		LLCBytes:          c.LLCPerCoreBytes * c.Cores,
		Warmup:            c.Warmup,
		Measure:           c.Measure,
		EpochInterval:     c.EpochInterval,
		Prefetchers:       c.Prefetchers,
		BranchMissPenalty: c.CPU.BranchMissPenalty,
		LLCPolicy:         c.LLCPolicy.String(),
		SamplePeriod:      c.Sampling.Period,
		SampleLen:         c.Sampling.SampleLen,
		SampleOffset:      c.Sampling.Offset,
		SampleWarm:        c.Sampling.DetailWarm,
	}
}

// WithSDCLP returns the SDC+LP proposal configuration.
func (c Config) WithSDCLP() Config {
	c.Name = "SDC+LP"
	c.Routing = RouteLP
	return c
}

// WithAdaptiveLP returns the SDC+LP configuration with the adaptive
// τ_glob extension enabled (this repository's future-work feature; the
// paper uses a fixed τ_glob = 8).
func (c Config) WithAdaptiveLP() Config {
	c.Name = "SDC+LP adaptive-tau"
	c.Routing = RouteLP
	c.LPAdaptive = true
	return c
}

// WithBypassOnly returns the Selective-Cache-style ablation: LP-driven
// L2/LLC bypass with no SDC to catch short-term reuse.
func (c Config) WithBypassOnly() Config {
	c.Name = "LP bypass (no SDC)"
	c.Routing = RouteBypass
	return c
}

// WithExpert returns the Expert Programmer configuration: the SDC fed
// by per-data-structure annotations instead of the LP.
func (c Config) WithExpert() Config {
	c.Name = "Expert"
	c.Routing = RouteExpert
	return c
}

// WithTOPT returns the T-OPT comparison configuration.
func (c Config) WithTOPT() Config {
	c.Name = "T-OPT"
	c.LLCPolicy = LLCTOPT
	return c
}

// WithRRIP returns the SRRIP-LLC comparison configuration.
func (c Config) WithRRIP() Config {
	c.Name = "SRRIP"
	c.LLCPolicy = LLCSRRIP
	return c
}

// WithDistill returns the Distill Cache comparison configuration: a
// quarter of the L2's ways become the word-organized cache. It panics on
// an L2 of fewer than 4 ways, which would leave no way to distill into.
func (c Config) WithDistill() Config {
	c.Name = "Distill"
	c.L2.DistillWOCWays = c.L2.Ways / 4
	if c.L2.DistillWOCWays == 0 {
		panic(fmt.Sprintf("sim: Distill needs an L2 of at least 4 ways, not %d", c.L2.Ways))
	}
	return c
}

// WithBigL1D returns the "L1D 40KB ISO" configuration: the SDC storage
// budget folded into the L1D as extra ways (40 KiB 10-way at Table I
// scale). The set count stays fixed so the geometry remains valid at
// any profile scale.
func (c Config) WithBigL1D() Config {
	c.Name = "L1D 40KB ISO"
	sets := c.L1D.Sets()
	c.L1D.SizeBytes += c.SDC.SizeBytes
	if c.L1D.SizeBytes%(sets*64) != 0 {
		panic("sim: L1D ISO size not way-aligned")
	}
	c.L1D.Ways = c.L1D.SizeBytes / (sets * 64)
	return c
}

// With2xLLC returns the doubled-LLC comparison configuration.
func (c Config) With2xLLC() Config {
	c.Name = "2xLLC"
	c.LLCPerCoreBytes *= 2
	return c
}

// WithSDCSize reconfigures the SDC size per the Section V-B1 design
// space exploration: 8 KiB (2-way, 1 cycle), 16 KiB (4-way, 3 cycles)
// or 32 KiB (8-way, 4 cycles).
func (c Config) WithSDCSize(kb int) Config {
	switch kb {
	case 8:
		c.SDC.SizeBytes, c.SDC.Ways, c.SDC.Latency = 8<<10, 2, 1
	case 16:
		c.SDC.SizeBytes, c.SDC.Ways, c.SDC.Latency = 16<<10, 4, 3
	case 32:
		c.SDC.SizeBytes, c.SDC.Ways, c.SDC.Latency = 32<<10, 8, 4
	default:
		panic(fmt.Sprintf("sim: unsupported SDC size %d KB", kb))
	}
	c.Name = fmt.Sprintf("SDC+LP %dKB", kb)
	return c
}

// WithLP overrides the LP geometry (Sections V-B2/V-B3).
func (c Config) WithLP(entries, ways int, tau uint64) Config {
	c.LP = corepkg.LPConfig{Entries: entries, Ways: ways, Tau: tau}
	c.Name = fmt.Sprintf("SDC+LP lp(%d,%dw,τ%d)", entries, ways, tau)
	return c
}

// WithVictimCache returns the victim-cache comparison configuration:
// a small fully-associative buffer catching L1D eviction victims
// (Jouppi 1990), which relies on conflict locality the paper argues
// graph gathers lack.
func (c Config) WithVictimCache(entries int) Config {
	c.Name = fmt.Sprintf("VictimCache-%d", entries)
	c.VictimEntries = entries
	return c
}

// WithoutPrefetchers disables every hardware prefetcher — the ablation
// isolating how much of each scheme's benefit depends on prefetching.
// Unlike WithPrefetchers("none") it renames the config, as the ablation
// tables print it.
func (c Config) WithoutPrefetchers() Config {
	c.Name += " noPF"
	c.Prefetchers = "none"
	return c
}

// ValidPrefetchers reports whether preset names a known prefetcher
// preset ("" — the default wiring — counts).
func ValidPrefetchers(preset string) bool {
	return preset == "" || slices.ContainsFunc(prefetchPresets, func(p prefetchPreset) bool { return p.name == preset })
}

// WithPrefetchers returns a copy running the named prefetcher preset
// (see Config.Prefetchers). The Name is unchanged — presets are a swept
// axis.
func (c Config) WithPrefetchers(preset string) Config {
	c.Prefetchers = preset
	return c
}

// WithBranchMissPenalty returns a copy injecting branch-misprediction
// stalls of the given refill depth (see cpu.Config.BranchMissPenalty).
// The Name is unchanged — the penalty is a swept sensitivity axis.
func (c Config) WithBranchMissPenalty(cycles int64) Config {
	c.CPU.BranchMissPenalty = cycles
	return c
}

// WithDirLatency overrides the coherence-directory round latency — the
// ablation for the SDC miss path's "lightweight coherence message"
// cost (Section III-D).
func (c Config) WithDirLatency(cycles int64) Config {
	c.Name += fmt.Sprintf(" dir%d", cycles)
	c.DirLatency = cycles
	return c
}

// BenchScale shrinks the main cache hierarchy by 4x (keeping the
// geometry ratios of Table I) so that proportionally smaller
// bench-profile graphs still exceed the LLC. The SDC and LP keep their
// paper sizes: the SDC's effectiveness depends on holding the hottest
// hub vertices, a working set that shrinks far more slowly than the
// graph itself.
func (c Config) BenchScale() Config {
	c.Name += " (bench-scale)"
	c.L1D.SizeBytes /= 4   // 8 KiB
	c.L2.SizeBytes /= 8    // 128 KiB
	c.LLCPerCoreBytes /= 8 // 176 KiB/core
	// The SDC keeps its full 8 KiB: its job is short-term reuse
	// capture, which does not shrink with the graph.
	return c
}

// PriorSchemes returns the four prior schemes the paper compares
// SDC+LP against, derived from base, in the paper's order: L1D-ISO,
// Distill, T-OPT and 2xLLC.
func PriorSchemes(base Config) []Config {
	return []Config{base.WithBigL1D(), base.WithDistill(), base.WithTOPT(), base.With2xLLC()}
}

// sdcDirConfig materializes the coherence directory configuration.
func (c Config) sdcDirConfig() coherence.Config {
	return coherence.Config{
		EntriesPerCore: c.SDCDirEntriesPerCore,
		Ways:           c.SDCDirWays,
		Cores:          c.Cores,
		Latency:        1,
	}
}

// llcConfig materializes the shared LLC configuration.
func (c Config) llcConfig() cache.Config {
	return cache.Config{
		Name:      "LLC",
		SizeBytes: c.LLCPerCoreBytes * c.Cores,
		Ways:      c.LLCWays,
		Latency:   c.LLCLatency,
		MSHRs:     c.LLCMSHRs * c.Cores,
	}
}
