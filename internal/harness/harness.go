// Package harness reproduces the paper's evaluation: it owns the
// workload registry (the 6 GAP kernels x 6 input graphs of Tables II
// and III), the scale profiles, and one runnable experiment per table
// and figure of the paper. Each experiment returns both the numeric
// series and a renderable text table; cmd/gmreport and the repository's
// bench_test.go are thin wrappers over this package.
package harness

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"graphmem/internal/check"
	"graphmem/internal/graph"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/obs"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
	"graphmem/internal/store"
)

// GraphNames lists the six inputs in Table III order.
var GraphNames = []string{"web", "road", "twitter", "kron", "urand", "friendster"}

// WorkloadID names one kernel x graph combination ("cc.friendster").
type WorkloadID struct {
	Kernel string
	Graph  string
}

// String implements fmt.Stringer.
func (w WorkloadID) String() string { return w.Kernel + "." + w.Graph }

// idle reports the zero WorkloadID: a core slot of a RunSpec that runs
// nothing (an isolated run's other cores).
func (w WorkloadID) idle() bool { return w == WorkloadID{} }

// AllWorkloads returns the 36 combinations in kernel-major Table II/III
// order.
func AllWorkloads() []WorkloadID {
	var out []WorkloadID
	for _, k := range kernels.Names() {
		for _, g := range GraphNames {
			out = append(out, WorkloadID{Kernel: k, Graph: g})
		}
	}
	return out
}

// GraphSpec builds one synthetic input graph.
type GraphSpec struct {
	Name  string
	Build func() *graph.Graph
}

// Profile is a reproduction scale: which machine, which graph sizes,
// which instruction windows, and how many multi-core mixes.
type Profile struct {
	Name string
	// BaseConfig returns the baseline machine for the given core count.
	BaseConfig func(cores int) sim.Config
	// Graphs maps Table III names to builders.
	Graphs map[string]GraphSpec
	// Warmup/Measure are single-core windows; MixWarmup/MixMeasure the
	// per-thread multi-core ones.
	Warmup, Measure       int64
	MixWarmup, MixMeasure int64
	// Mixes is the number of 4-thread mixes for Fig. 14.
	Mixes int
}

func graphSet(vBig, vRoadSide int32, degPL, degWeb int, kronScale int, kronEF int64) map[string]GraphSpec {
	return map[string]GraphSpec{
		"web": {Name: "web", Build: func() *graph.Graph {
			return graph.WebLike(vBig, degWeb, 0x3EB)
		}},
		"road": {Name: "road", Build: func() *graph.Graph {
			return graph.RoadGrid(vRoadSide, vRoadSide, 255, 0x70AD)
		}},
		"twitter": {Name: "twitter", Build: func() *graph.Graph {
			return graph.PowerLaw(vBig, degPL, 0.15, false, 0x7517)
		}},
		"kron": {Name: "kron", Build: func() *graph.Graph {
			return graph.Kron(kronScale, kronEF, 0x6501)
		}},
		"urand": {Name: "urand", Build: func() *graph.Graph {
			return graph.Urand(1<<uint(kronScale), kronEF*int64(1)<<uint(kronScale)/2, 0x0a4d)
		}},
		"friendster": {Name: "friendster", Build: func() *graph.Graph {
			return graph.PowerLaw(vBig+vBig/4, degPL+2, 0.05, true, 0xF12E)
		}},
	}
}

// Bench returns the fast profile: 4-8x shrunk hierarchy, ~0.5M-vertex
// graphs (property arrays ~10x the shrunk LLC), short windows. Used by
// tests and testing.B benchmarks.
func Bench() Profile {
	return Profile{
		Name:       "bench",
		BaseConfig: func(cores int) sim.Config { return sim.TableI(cores).BenchScale() },
		Graphs:     graphSet(450_000, 700, 6, 8, 19, 8),
		// Warm-up covers the sequential initialization phase of the
		// largest bench graphs (e.g. PR's contrib refresh, ~6 instr per
		// vertex) so the measured window is the data-dependent phase
		// the paper's SimPoints capture.
		Warmup: 4_000_000, Measure: 4_000_000,
		MixWarmup: 3_500_000, MixMeasure: 1_500_000,
		Mixes: 8,
	}
}

// Small returns the default profile: the full Table I machine with
// ~2M-vertex graphs (property arrays ~6x the LLC).
func Small() Profile {
	return Profile{
		Name:       "small",
		BaseConfig: sim.TableI,
		Graphs:     graphSet(2_000_000, 1400, 8, 8, 21, 8),
		Warmup:     16_000_000, Measure: 12_000_000,
		MixWarmup: 16_000_000, MixMeasure: 4_000_000,
		Mixes: 50,
	}
}

// Full returns the largest profile this substrate supports: the Table I
// machine with ~4M-vertex graphs (property arrays ~12x the LLC).
func Full() Profile {
	return Profile{
		Name:       "full",
		BaseConfig: sim.TableI,
		Graphs:     graphSet(4_000_000, 2000, 8, 8, 22, 6),
		Warmup:     30_000_000, Measure: 20_000_000,
		MixWarmup: 30_000_000, MixMeasure: 6_000_000,
		Mixes: 50,
	}
}

// ProfileByName resolves "bench", "small" or "full".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "bench":
		return Bench(), nil
	case "small", "":
		return Small(), nil
	case "full":
		return Full(), nil
	default:
		return Profile{}, fmt.Errorf("harness: unknown profile %q", name)
	}
}

// Workbench caches graphs and simulation results for one profile so
// experiments that share runs (Fig. 7/8/9/13) don't recompute them.
type Workbench struct {
	Profile Profile
	// Progress, when set, receives the reporter's output lines (one per
	// completed run plus narration). Set it before running experiments.
	Progress func(msg string)
	// Reporter tracks sweep progress (runs done/planned, moving-average
	// run time, ETA, in-flight runs). It emits through Progress, so a
	// nil Progress keeps the workbench silent while counts stay
	// accurate. Replace it to capture structured progress directly.
	Reporter *obs.Progress
	// Parallelism bounds how many simulations (and the graph builds
	// they trigger) run concurrently; 0 means all host cores
	// (GOMAXPROCS). Each simulation stays single-threaded and
	// deterministic — only scheduling is concurrent — so experiment
	// output is byte-identical at any setting. Set it before the first
	// run; cmd/gmreport and cmd/gmsim expose it as -j. Peak memory
	// grows with the number of concurrently live graphs: use -j 1 when
	// memory-bound.
	Parallelism int
	// Metrics, when set, receives run lifecycle events (started,
	// finished with IPC and recorder snapshot, cached) for the live
	// -metrics HTTP endpoint, each run under its RunSpec digest. A nil
	// Metrics is a no-op — every call site threads the pointer
	// unconditionally.
	Metrics *obs.Metrics
	// CheckLevel runs every simulation under the differential checker
	// (internal/check) at the given level. Checked runs produce
	// bit-identical counters, so memoized results remain valid for
	// unchecked consumers; violations aggregate across the sweep and
	// are reported by CheckOutcome. Set it before the first run;
	// cmd/gmsim and cmd/gmreport expose it as -check.
	CheckLevel check.Level
	// WeaveJobs, when positive, runs every multi-core simulation (mix
	// and isolated runs) on the bound–weave parallel engine
	// (sim.Config.Quantum = sim.DefaultQuantum) with up to WeaveJobs
	// host goroutines per simulation. Weave workers are real host work
	// and therefore count against the Parallelism budget: such a run
	// claims min(WeaveJobs, workers) pool slots for its duration.
	// Results are identical at any WeaveJobs >= 1 (the engine's
	// determinism contract); only wall-clock changes. Set it before the
	// first run; cmd/gmsim and cmd/gmreport expose it as -wj.
	WeaveJobs int
	// Sampling, when enabled, runs every eligible single-core simulation
	// under the statistical sampling engine (internal/sample) with this
	// schedule: results carry confidence-interval estimates instead of
	// exact window counters, at a fraction of the detailed-simulation
	// cost. Runs the engine does not support — multi-core, checked,
	// flight-recorded, epoch-sampled or bound–weave — keep full fidelity.
	// The plan is part of a run's identity (see RunSpec), so sampled and
	// detailed runs never share a memo entry. Set it
	// before the first run; cmd/gmsim and cmd/gmreport expose it as
	// -sample.
	Sampling sample.Plan
	// Checkpoints, when set alongside Sampling, is the warm-up
	// checkpoint store: sampled runs of this profile sharing a workload
	// and everything the warm-up depends on (sim.Config.WarmKey) replay
	// one functional warm-up and restore the rest from disk. Wall-clock
	// only — restored runs are
	// byte-identical to re-warmed ones — so the store is excluded from
	// run identity (sim.WallClockOnly). Exposed as -ckpt.
	Checkpoints *sample.Store
	// Store, when set, is the disk-backed content-addressed result
	// store: a read-through/write-through tier under the in-memory memo
	// (lookup order: memory → disk → run), keyed by RunSpec.StoreKey,
	// for every run the workbench launches — points, the Fig. 3 profile,
	// isolated runs and mixes. Stored results are byte-identical to live
	// runs, so the tier affects wall-clock only; runs
	// sim.Config.Cacheable rejects (checked ones) bypass it both ways.
	// Open one with OpenResultStore; cmd/gmreport and cmd/gmsim expose
	// it as -store, and gmserved fronts one as a service.
	Store *store.Store

	mu sync.Mutex // guards sem's creation and the check aggregate
	// batchMu serializes multi-slot pool acquisitions (acquireN) so two
	// weave-parallel runs can never deadlock each other by each holding
	// half the pool while waiting for more.
	batchMu sync.Mutex
	sem     chan struct{} // worker pool, sized on first acquire
	graphs  flight[*graph.Graph]
	// runs memoizes every run by RunSpec key, whatever its shape: a
	// *sim.Result, *sim.MultiResult or *Fig3Result, as the key's kind says.
	runs flight[any]

	checkRuns       int64             // live checked runs aggregated
	checkViolations int64             // total violations across the sweep
	checkDetails    []check.Violation // capped per-run details, concatenated
}

// NewWorkbench creates an empty workbench for the profile.
func NewWorkbench(p Profile) *Workbench {
	wb := &Workbench{Profile: p}
	wb.Reporter = obs.NewProgress(func(msg string) {
		if wb.Progress != nil {
			wb.Progress(msg)
		}
	})
	return wb
}

// WithProfile returns an empty workbench for p that shares wb's knobs,
// stores and metrics (not its memo or worker pool): how gmserved serves
// several profiles from one set of flags.
func (wb *Workbench) WithProfile(p Profile) *Workbench {
	n := NewWorkbench(p)
	n.Parallelism, n.WeaveJobs, n.Metrics = wb.Parallelism, wb.WeaveJobs, wb.Metrics
	n.CheckLevel, n.Sampling, n.Checkpoints, n.Store = wb.CheckLevel, wb.Sampling, wb.Checkpoints, wb.Store
	return n
}

func (wb *Workbench) log(format string, args ...any) {
	wb.Reporter.Log(fmt.Sprintf(format, args...))
}

// Graph returns (building and caching on first use) the named input.
// Builds are single-flight: concurrent requests for the same graph
// share one build, while different graphs build in parallel.
func (wb *Workbench) Graph(name string) *graph.Graph {
	g, _ := wb.graphs.do(name, func() *graph.Graph {
		spec, ok := wb.Profile.Graphs[name]
		if !ok {
			panic("harness: unknown graph " + name)
		}
		wb.log("building graph %s (%s profile)", name, wb.Profile.Name)
		return spec.Build()
	})
	return g
}

// Workload prepares the kernel instance for id in core slot's address
// window. Instances are cheap relative to simulation and are not
// cached (kernels keep mutable state).
func (wb *Workbench) Workload(id WorkloadID, slot int) sim.Workload {
	if id.Graph == "reg" {
		build, ok := kernels.RegularBuilders()[id.Kernel]
		if !ok {
			panic("harness: unknown regular kernel " + id.Kernel)
		}
		space := mem.NewSpace(slot)
		return sim.Workload{Name: id.String(), Inst: build(nil, space), Space: space}
	}
	build, ok := kernels.Registry()[id.Kernel]
	if !ok {
		panic("harness: unknown kernel " + id.Kernel)
	}
	g := wb.Graph(id.Graph)
	space := mem.NewSpace(slot)
	return sim.Workload{Name: id.String(), Inst: build(g, space), Space: space}
}

// Configure folds the profile's windows and the workbench's check
// level, sampling plan and checkpoint store into cfg, all as requested,
// and returns sim.Config.Validate's verdict on the combination — what a
// tool checks before running a config its user spelled out.
func (wb *Workbench) Configure(cfg sim.Config) (sim.Config, error) {
	cfg = cfg.WithWindows(wb.Profile.Warmup, wb.Profile.Measure)
	cfg.CheckLevel = wb.CheckLevel
	if wb.Sampling.Enabled() {
		cfg.Sampling.Plan = wb.Sampling
	}
	if wb.Checkpoints != nil {
		cfg = cfg.WithCheckpointStore(wb.Checkpoints, wb.Profile.Name)
	}
	return cfg, cfg.Validate()
}

// configured is Configure for the configs experiments derive: a run the
// sampler cannot take keeps full fidelity instead of failing.
func (wb *Workbench) configured(cfg sim.Config) sim.Config {
	full, err := wb.Configure(cfg)
	if err != nil {
		full.Sampling = cfg.Sampling
	}
	return full
}

// recordCheck folds one run's checker outcome into the sweep aggregate.
func (wb *Workbench) recordCheck(s check.Summary) {
	if wb.CheckLevel == check.Off {
		return
	}
	wb.mu.Lock()
	wb.checkRuns++
	wb.checkViolations += s.Violations
	wb.checkDetails = append(wb.checkDetails, s.Details...)
	wb.mu.Unlock()
}

// CheckOutcome reports the aggregated differential-checker outcome:
// how many live runs were checked, the total violation count, and the
// retained per-violation details (capped per run by internal/check).
func (wb *Workbench) CheckOutcome() (runs, violations int64, details []check.Violation) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.checkRuns, wb.checkViolations, append([]check.Violation(nil), wb.checkDetails...)
}

// BaseConfig returns the profile's single-core baseline machine.
func (wb *Workbench) BaseConfig() sim.Config {
	return wb.configured(wb.Profile.BaseConfig(1))
}

// RunSingle simulates workload id on cfg (with profile windows),
// memoizing by the run's structural identity (see RunSpec). It is safe
// for concurrent use and single-flight: a call for a point already in
// flight blocks until the one live run finishes and shares its result,
// so experiments overlapping on runs never race or compute a point
// twice. Live runs execute inside the workbench's worker pool (see
// Parallelism).
func (wb *Workbench) RunSingle(cfg sim.Config, id WorkloadID) *sim.Result {
	return wb.Run(wb.Spec(cfg, id))
}

// Run is RunSingle on a spec this workbench's Spec derived, for callers
// that also want the run's key without deriving it twice.
func (wb *Workbench) Run(s RunSpec) *sim.Result {
	return through(wb, s, pointShape, func(cfg sim.Config, ws []sim.Workload) (*sim.Result, check.Summary) {
		res := sim.RunSingleCore(cfg, ws[0])
		return res, res.Check
	})
}

// RunMix is Run for a multi-core spec: a mix, or an isolated run (a mix
// whose other slots are idle).
func (wb *Workbench) RunMix(s RunSpec) *sim.MultiResult {
	return through(wb, s, mixShape, func(cfg sim.Config, ws []sim.Workload) (*sim.MultiResult, check.Summary) {
		res := sim.RunMultiCore(cfg, ws)
		return res, res.Check
	})
}

// shape is what the door needs to know about one kind of run's value:
// its codec for the disk tier — decode also validates the payload
// against the run it claims to cache, false meaning unusable
// (undecodable or a key collision) — and how it reads on a progress
// line and on /metrics.
type shape[V any] struct {
	encode   func(V) ([]byte, error)
	decode   func(payload []byte, s RunSpec) (V, bool)
	describe func(V) (detail string, ipc float64, rec *obs.RecSummary)
}

var pointShape = shape[*sim.Result]{
	encode: sim.EncodeResult,
	decode: func(payload []byte, s RunSpec) (*sim.Result, bool) {
		res, err := sim.DecodeResult(payload)
		return res, err == nil && res.Config == s.cfg.Name && res.Workload == s.ids[0].String()
	},
	describe: func(r *sim.Result) (string, float64, *obs.RecSummary) {
		return fmt.Sprintf("IPC=%.3f", r.IPC()), r.IPC(), r.Recorder
	},
}

var mixShape = shape[*sim.MultiResult]{
	encode: sim.EncodeMultiResult,
	decode: func(payload []byte, s RunSpec) (*sim.MultiResult, bool) {
		res, err := sim.DecodeMultiResult(payload)
		return res, err == nil && res.Config == s.cfg.Name && len(res.PerCore) == len(s.ids) &&
			slices.EqualFunc(res.Names, s.ids, func(name string, id WorkloadID) bool {
				return name == id.String() || name == "" && id.idle()
			})
	},
	describe: func(r *sim.MultiResult) (string, float64, *obs.RecSummary) {
		ipcs, sum := r.IPCs(), 0.0
		for _, v := range ipcs {
			sum += v
		}
		return fmt.Sprintf("IPCs=%.3v", ipcs), sum, nil
	},
}

// through is the one door every simulation the harness launches goes
// through, whatever its shape, in three steps: the in-memory
// single-flight memo, the disk tier, and a live run inside the pool
// bracket (live). A value served by the memo or by another caller's
// fill reports as cached.
func through[V any](wb *Workbench, s RunSpec, sh shape[V], simulate func(sim.Config, []sim.Workload) (V, check.Summary)) V {
	var scratch [64]byte
	names := string(appendMixName(scratch[:0], s.ids))
	label := fmt.Sprintf("%-6s %-22s %-14s", s.kind, names, s.cfg.Name)
	mlabel := s.cfg.Name + "/" + names
	v, shared := wb.runs.do(s.key, func() any {
		// Disk tier: the store's Acquire holds the key's claim from here to
		// commit, so concurrent processes sharing the directory serialize on
		// the run too. A hit must decode to exactly the run we asked for;
		// anything else is dropped (Reject) and the run proceeds live with
		// the claim still held, republishing under the key — the cache can
		// never poison a sweep.
		var commit func([]byte) error
		if wb.storeEligible(s.cfg) {
			var payload []byte
			payload, commit = wb.Store.Acquire(s.StoreKey())
			// Whatever happens below — a hit, a crash — the claim is released;
			// only a completed live run publishes (and clears commit) first.
			defer func() {
				if commit != nil {
					_ = commit(nil)
				}
			}()
			if payload != nil {
				if v, ok := sh.decode(payload, s); ok {
					detail, _, _ := sh.describe(v)
					wb.Reporter.Cached(label, detail+" (store)")
					wb.Metrics.RunStoreHit(mlabel)
					return v
				}
				wb.Store.Reject(s.StoreKey())
			}
		}

		v := live(wb, s, label, mlabel, sh, simulate)
		if commit != nil {
			// Write-through is best effort: a failed publish costs the next
			// process a re-run, never correctness.
			data, err := sh.encode(v)
			if err == nil {
				err, commit = commit(data), nil
			}
			if err != nil {
				wb.log("result store write failed for %s: %v", s.key, err)
			}
		}
		return v
	})
	if shared {
		detail, _, _ := sh.describe(v.(V))
		wb.Reporter.Cached(label, detail)
		wb.Metrics.RunCached(mlabel)
	}
	return v.(V)
}

// live is the one bracket around every live simulation: it claims the
// run's pool slots, prepares the slots' workloads, reports start and
// finish to the Reporter and to Metrics, and folds the checker outcome
// into the sweep aggregate. Every claim comes back through a defer, so
// a panicking run leaks nothing.
func live[V any](wb *Workbench, s RunSpec, label, mlabel string, sh shape[V], simulate func(sim.Config, []sim.Workload) (V, check.Summary)) V {
	cfg, slots := wb.acquireSim(s.cfg)
	defer wb.releaseN(slots)
	ws := make([]sim.Workload, len(s.ids))
	for i, id := range s.ids {
		if !id.idle() {
			ws[i] = wb.Workload(id, i)
		}
	}
	m := wb.pointMetrics(s)
	finish := wb.Reporter.StartRun(label)
	m.RunStarted(s.StoreKey(), mlabel)
	start := time.Now()
	v, checked := simulate(cfg, ws)
	detail, ipc, rec := sh.describe(v)
	finish(detail)
	m.RunFinished(s.StoreKey(), mlabel, time.Since(start).Seconds(), ipc, rec)
	wb.recordCheck(checked)
	return v
}

// pointMetrics is the registry s's live run is planned on and reports
// to. The Fig. 3 profile is not a simulation point — it yields a
// stride histogram, no IPC — so /metrics' live-run counters (which
// count points) leave it out; its store and memo hits still count.
func (wb *Workbench) pointMetrics(s RunSpec) *obs.Metrics {
	if s.kind == kindFig3 {
		return nil
	}
	return wb.Metrics
}

// SortedResultKeys exposes the memoized run keys (for tests).
func (wb *Workbench) SortedResultKeys() []string { return wb.runs.keys() }
