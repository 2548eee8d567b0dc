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
var GraphNames = names(inputGraphs)

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
	names := kernels.Names(kernels.GAP)
	out := make([]WorkloadID, 0, len(names)*len(GraphNames))
	for _, k := range names {
		for _, g := range GraphNames {
			out = append(out, WorkloadID{Kernel: k, Graph: g})
		}
	}
	return out
}

// kernelBuilder looks id's kernel up in the kernel table: the regular
// stand-ins run on Graph "reg", every other kernel on an input graph.
func kernelBuilder(id WorkloadID) (kernels.Builder, bool) {
	k, ok := kernels.Lookup(id.Kernel)
	return k.Build, ok && (k.Suite == kernels.Regular) == (id.Graph == "reg")
}

// ResolveWorkload names the workload a kernel and a graph name select —
// a graph kernel on one of GraphNames, or a regular kernel on "reg" —
// or says that they select none. Tools resolve every name this way
// before the first graph build.
func ResolveWorkload(kernel, graphName string) (WorkloadID, error) {
	id := WorkloadID{Kernel: kernel, Graph: graphName}
	if _, ok := kernelBuilder(id); !ok || id.Graph != "reg" && !slices.Contains(GraphNames, id.Graph) {
		return id, fmt.Errorf("unknown workload %s", id)
	}
	return id, nil
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

// graphSizes are a profile's input sizes; urand takes Kron's.
type graphSizes struct {
	vBig, vRoadSide          int32
	degPL, degWeb, kronScale int
	kronEF                   int64
}

// inputGraph is a Table III input's seed and its build over a profile's sizes.
type inputGraph struct {
	seed  uint64
	build func(s graphSizes, seed uint64) *graph.Graph
}

// inputGraphs lists the Table III inputs in Table III order.
var inputGraphs = []entry[inputGraph]{
	{"web", nil, inputGraph{0x3EB, func(s graphSizes, seed uint64) *graph.Graph {
		return graph.WebLike(s.vBig, s.degWeb, seed)
	}}},
	{"road", nil, inputGraph{0x70AD, func(s graphSizes, seed uint64) *graph.Graph {
		return graph.RoadGrid(s.vRoadSide, s.vRoadSide, 255, seed)
	}}},
	{"twitter", nil, inputGraph{0x7517, func(s graphSizes, seed uint64) *graph.Graph {
		return graph.PowerLaw(s.vBig, s.degPL, 0.15, false, seed)
	}}},
	{"kron", nil, inputGraph{0x6501, func(s graphSizes, seed uint64) *graph.Graph {
		return graph.Kron(s.kronScale, s.kronEF, seed)
	}}},
	{"urand", nil, inputGraph{0x0a4d, func(s graphSizes, seed uint64) *graph.Graph {
		return graph.Urand(1<<uint(s.kronScale), s.kronEF*int64(1)<<uint(s.kronScale)/2, seed)
	}}},
	{"friendster", nil, inputGraph{0xF12E, func(s graphSizes, seed uint64) *graph.Graph {
		return graph.PowerLaw(s.vBig+s.vBig/4, s.degPL+2, 0.05, true, seed)
	}}},
}

// graphSet is every input graph at sizes s, keyed by name.
func graphSet(s graphSizes) map[string]GraphSpec {
	set := make(map[string]GraphSpec, len(inputGraphs))
	for _, in := range inputGraphs {
		set[in.name] = GraphSpec{Name: in.name, Build: func() *graph.Graph { return in.v.build(s, in.v.seed) }}
	}
	return set
}

// profiles lists the scale profiles in the order help texts name them;
// Bench, Small and Full are its entries. An entry's func leaves Name
// unset: named fills it from the entry.
var profiles = []entry[func() Profile]{
	// The fast profile: 4-8x shrunk hierarchy, ~0.5M-vertex graphs
	// (property arrays ~10x the shrunk LLC), short windows.
	{"bench", nil, func() Profile {
		return Profile{
			BaseConfig: func(cores int) sim.Config { return sim.TableI(cores).BenchScale() },
			Graphs:     graphSet(graphSizes{450_000, 700, 6, 8, 19, 8}),
			// Warm-up covers the sequential initialization phase of the
			// largest bench graphs (e.g. PR's contrib refresh, ~6 instr
			// per vertex) so the measured window is the data-dependent
			// phase the paper's SimPoints capture.
			Warmup: 4_000_000, Measure: 4_000_000,
			MixWarmup: 3_500_000, MixMeasure: 1_500_000,
			Mixes: 8,
		}
	}},
	// The default profile: the full Table I machine with ~2M-vertex
	// graphs (property arrays ~6x the LLC).
	{"small", []string{""}, func() Profile {
		return Profile{
			BaseConfig: sim.TableI,
			Graphs:     graphSet(graphSizes{2_000_000, 1400, 8, 8, 21, 8}),
			Warmup:     16_000_000, Measure: 12_000_000,
			MixWarmup: 16_000_000, MixMeasure: 4_000_000,
			Mixes: 50,
		}
	}},
	// The largest profile this substrate supports: the Table I machine
	// with ~4M-vertex graphs (property arrays ~12x the LLC).
	{"full", nil, func() Profile {
		return Profile{
			BaseConfig: sim.TableI,
			Graphs:     graphSet(graphSizes{4_000_000, 2000, 8, 8, 22, 6}),
			Warmup:     30_000_000, Measure: 20_000_000,
			MixWarmup: 30_000_000, MixMeasure: 6_000_000,
			Mixes: 50,
		}
	}},
}

// named builds a profiles entry's profile under the entry's name.
func named(p entry[func() Profile]) Profile {
	out := p.v()
	out.Name = p.name
	return out
}

// Bench returns the fast profile tests and testing.B benchmarks use.
func Bench() Profile { return named(profiles[0]) }

// Small returns the default profile.
func Small() Profile { return named(profiles[1]) }

// ProfileByName resolves a profile's name or alias.
func ProfileByName(name string) (Profile, error) {
	if p, ok := lookup(profiles, name); ok {
		return named(p), nil
	}
	return Profile{}, fmt.Errorf("harness: unknown profile %q", name)
}

// Workbench caches graphs and simulation results for one profile so
// experiments that share runs (Fig. 7/8/9/13) don't recompute them.
type Workbench struct {
	Profile Profile
	// Progress, when set, receives the progress lines (one per finished
	// or served run, with runs done/planned, moving-average run time,
	// ETA and runs in flight, plus narration). A nil Progress keeps the
	// workbench silent while Metrics still counts. It is called under
	// the ledger's lock, so lines arrive in count order; it must not
	// call back into Metrics.
	Progress func(msg string)
	// Parallelism bounds how many simulations (and the graph builds
	// they trigger) run concurrently; 0 means all host cores
	// (GOMAXPROCS). Each simulation stays single-threaded and
	// deterministic — only scheduling is concurrent — so experiment
	// output is byte-identical at any setting. Set it before the first
	// run; cmd/gmreport and cmd/gmsim expose it as -j. Peak memory
	// grows with the number of concurrently live graphs: use -j 1 when
	// memory-bound. One graph build may itself briefly use every core
	// (internal/graph splits its passes over up to GOMAXPROCS workers,
	// with the same bytes at any count); it still holds one slot.
	Parallelism int
	// Metrics is the run ledger: NewWorkbench attaches one and
	// WithProfile shares it, and every run is reported to it once, under
	// its RunSpec digest — planned, started, finished (with IPC, recorder
	// snapshot and checker outcome) or served by the memo or the store.
	// The progress lines, the -metrics endpoint, Counts and CheckOutcome
	// all read it. Replace it, if at all, before the first run.
	Metrics *obs.Metrics
	// CheckLevel runs every simulation under the differential checker
	// (internal/check) at the given level. Checked runs produce
	// bit-identical counters, so memoized results remain valid for
	// unchecked consumers; violations aggregate across the sweep and
	// are reported by CheckOutcome. Set it before the first run;
	// cmd/gmsim and cmd/gmreport expose it as -check.
	CheckLevel check.Level
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

	mu     sync.Mutex    // guards sem's creation and loads
	sem    chan struct{} // worker pool, sized on first use
	graphs flight[*graph.Graph]
	loads  []obs.GraphLoad // how each graph in graphs was obtained
	// runs memoizes every run by RunSpec key, whatever its shape: a
	// *sim.Result, *sim.MultiResult or *Fig3Result, as the key's kind says.
	runs flight[any]
}

// NewWorkbench creates an empty workbench for the profile.
func NewWorkbench(p Profile) *Workbench {
	return &Workbench{Profile: p, Metrics: obs.NewMetrics()}
}

// WithProfile returns an empty workbench for p that shares wb's knobs,
// store, ledger and worker pool (not its memo): how gmserved serves
// several profiles from one set of flags with one ledger, and at most
// Parallelism simulations at once across all of them.
func (wb *Workbench) WithProfile(p Profile) *Workbench {
	return &Workbench{Profile: p, Parallelism: wb.Parallelism, Metrics: wb.Metrics,
		CheckLevel: wb.CheckLevel, Sampling: wb.Sampling, Store: wb.Store, sem: wb.pool()}
}

func (wb *Workbench) log(format string, args ...any) {
	wb.Metrics.Log(wb.Progress, fmt.Sprintf(format, args...))
}

// Graph returns (building or reading from the graph cache on first use,
// and memoizing) the named input. Loads are single-flight: concurrent
// requests for the same graph share one load, while different graphs
// load in parallel. Each load is logged and kept for GraphLoads.
func (wb *Workbench) Graph(name string) *graph.Graph {
	g, _ := wb.graphs.do(name, func() *graph.Graph {
		spec, ok := wb.Profile.Graphs[name]
		if !ok {
			panic("harness: unknown graph " + name)
		}
		start := time.Now()
		g := spec.Build()
		load := obs.GraphLoad{Name: name, Source: "built", Seconds: time.Since(start).Seconds()}
		if g.FromCache() {
			load.Source = "read"
		}
		wb.mu.Lock()
		wb.loads = append(wb.loads, load)
		wb.mu.Unlock()
		wb.log("graph %s (%s profile) %s in %.3f s", name, wb.Profile.Name, load.Source, load.Seconds)
		return g
	})
	return g
}

// GraphLoads lists the graphs this workbench has loaded, in the order
// their loads finished: built by their generator or read from the graph
// cache, and in how many seconds.
func (wb *Workbench) GraphLoads() []obs.GraphLoad {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return slices.Clone(wb.loads)
}

// Workload prepares the kernel instance for id in core slot's address
// window. Instances are cheap relative to simulation and are not
// cached (kernels keep mutable state).
func (wb *Workbench) Workload(id WorkloadID, slot int) sim.Workload {
	build, ok := kernelBuilder(id)
	if !ok {
		panic("harness: unknown workload " + id.String())
	}
	var g *graph.Graph
	if id.Graph != "reg" {
		g = wb.Graph(id.Graph)
	}
	space := mem.NewSpace(slot)
	return sim.Workload{Name: id.String(), Inst: build(g, space), Space: space}
}

// Configure folds the profile's windows and the workbench's check level
// and sampling plan into cfg, all as requested, and returns
// sim.Config.Validate's verdict on the combination — what a tool checks
// before running a config its user spelled out.
func (wb *Workbench) Configure(cfg sim.Config) (sim.Config, error) {
	cfg = cfg.WithWindows(wb.Profile.Warmup, wb.Profile.Measure)
	cfg.CheckLevel = wb.CheckLevel
	if wb.Sampling.Enabled() {
		cfg.Sampling.Plan = wb.Sampling
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

// CheckOutcome reports the ledger's differential-checker tally: how
// many live runs were checked, the total violation count, and the
// retained per-violation details (capped per run by internal/check).
func (wb *Workbench) CheckOutcome() (runs, violations int64, details []check.Violation) {
	return wb.Metrics.CheckOutcome()
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
func (wb *Workbench) Run(s RunSpec) *sim.Result { return through(wb, &s, pointShape) }

// RunMix is Run for a multi-core spec: a mix, or an isolated run (a mix
// whose other slots are idle).
func (wb *Workbench) RunMix(s RunSpec) *sim.MultiResult { return through(wb, &s, mixShape) }

// shape is what the door needs to know about one kind of run's value:
// how to simulate it on the core slots' prepared workloads, its codec
// for the disk tier — decode also validates the payload against the run
// it claims to cache, false meaning unusable (undecodable or a key
// collision) — and how it reads on a progress line and on /metrics.
type shape[V any] struct {
	simulate func(s *RunSpec, ws []sim.Workload) (V, check.Summary)
	encode   func(V) ([]byte, error)
	decode   func(payload []byte, s *RunSpec) (V, bool)
	describe func(V) (detail string, ipc float64, rec *obs.RecSummary)
}

var pointShape = shape[*sim.Result]{
	simulate: func(s *RunSpec, ws []sim.Workload) (*sim.Result, check.Summary) {
		res := sim.RunSingleCore(s.cfg, ws[0])
		return res, res.Check
	},
	encode: sim.EncodeResult,
	decode: func(payload []byte, s *RunSpec) (*sim.Result, bool) {
		res, err := sim.DecodeResult(payload)
		return res, err == nil && res.Config == s.cfg.Name && res.Workload == s.ids[0].String()
	},
	describe: func(r *sim.Result) (string, float64, *obs.RecSummary) {
		return fmt.Sprintf("IPC=%.3f", r.IPC()), r.IPC(), r.Recorder
	},
}

var mixShape = shape[*sim.MultiResult]{
	simulate: func(s *RunSpec, ws []sim.Workload) (*sim.MultiResult, check.Summary) {
		res := sim.RunMultiCore(s.cfg, ws)
		return res, res.Check
	},
	encode: sim.EncodeMultiResult,
	decode: func(payload []byte, s *RunSpec) (*sim.MultiResult, bool) {
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
// through, whatever its shape: the in-memory memo, the disk tier, and a
// live run inside the pool bracket (live). A hit on either tier resolves
// on the caller (tryHit); everything else takes the single-flight fill.
func through[V any](wb *Workbench, s *RunSpec, sh shape[V]) V {
	if v, ok := tryHit(wb, s, sh); ok {
		return v
	}
	return fill(wb, s, sh)
}

// tryHit answers s without blocking when a tier holds it: a memoized
// value is a memo hit; for a store-eligible run, a published entry that
// decodes to exactly this run is a store hit, and is memoized. It
// reports false for a key whose fill is in flight, which the caller
// joins through fill rather than reading the store around it, and for a
// key neither tier holds.
func tryHit[V any](wb *Workbench, s *RunSpec, sh shape[V]) (V, bool) {
	memo, ok, busy := wb.runs.lookup(s.key)
	if ok {
		served(wb, s, sh, memo.(V), false)
		return memo.(V), true
	}
	var hit V
	if busy || !wb.storeEligible(s.cfg) || !wb.Store.Peek(s.StoreKey(), func(payload []byte) (usable bool) {
		hit, usable = sh.decode(payload, s)
		return usable
	}) {
		var zero V
		return zero, false
	}
	wb.runs.put(s.key, hit)
	served(wb, s, sh, hit, true)
	return hit, true
}

// fill is the door past the hit path: the memo's single-flight fill,
// which takes the store's claim and runs s live when the store holds
// nothing usable. A value from another caller's fill reports as cached.
func fill[V any](wb *Workbench, s *RunSpec, sh shape[V]) V {
	v, shared := wb.runs.do(s.key, func() any {
		// Disk tier: the store's Acquire holds the key's claim from here to
		// commit, so other workbenches and processes sharing the directory
		// serialize on the run too. It still hits on an entry published
		// since tryHit peeked, or one another producer publishes while
		// Acquire waits on its claim. A hit must decode to exactly the run we asked for;
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
					served(wb, s, sh, v, true)
					return v
				}
				wb.Store.Reject(s.StoreKey())
			}
		}

		v := live(wb, s, sh)
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
		served(wb, s, sh, v.(V), false)
	}
	return v.(V)
}

// served reports a run answered without simulating — from the store, or
// from the memo or another caller's fill — to the ledger. Its label and
// detail are formatted only for a reader: on a workbench whose progress
// nobody reads, a memo hit just counts. s is a pointer: a RunSpec copy
// carries a whole sim.Config onto the hit path's stack.
func served[V any](wb *Workbench, s *RunSpec, sh shape[V], v V, fromStore bool) {
	var label, detail string
	if wb.Progress != nil {
		label = progressLabel(s)
		detail, _, _ = sh.describe(v)
	}
	wb.Metrics.Served(wb.Progress, s.StoreKey(), label, detail, fromStore)
}

// point reports whether s counts in the ledger's point series. The
// Fig. 3 profile does not: it yields a stride histogram, no IPC, so
// /metrics' live-run counters leave it out; its progress lines and its
// store and memo hits still count.
func (s *RunSpec) point() bool { return s.kind != kindFig3 }

// progressLabel is s's name on a progress line; metricsLabel its name on
// /metrics, "" when s is not a point.
func progressLabel(s *RunSpec) string {
	var scratch [64]byte
	return fmt.Sprintf("%-6s %-22s %-14s", s.kind, appendMixName(scratch[:0], s.ids), s.cfg.Name)
}

func metricsLabel(s *RunSpec) string {
	if !s.point() {
		return ""
	}
	var scratch [64]byte
	return s.cfg.Name + "/" + string(appendMixName(scratch[:0], s.ids))
}

// live is the one bracket around every live simulation: it plans the
// run with the ledger (only runs that memo and store both missed get
// here, so the plan counts exactly the runs that simulate), claims one
// pool slot, prepares the core slots' workloads, and reports start and
// finish — with the checker outcome — to the ledger. The pool slot and
// the ledger entry are closed through defers, so a panicking run leaks
// neither.
func live[V any](wb *Workbench, s *RunSpec, sh shape[V]) V {
	key := s.StoreKey()
	wb.Metrics.Plan(key, s.point())
	finished := false
	defer func() {
		if !finished {
			wb.Metrics.Abort(key)
		}
	}()
	wb.acquire()
	defer wb.release()
	ws := make([]sim.Workload, len(s.ids))
	for i, id := range s.ids {
		if !id.idle() {
			ws[i] = wb.Workload(id, i)
		}
	}
	finish := wb.Metrics.Start(wb.Progress, key, progressLabel(s), metricsLabel(s))
	v, checked := sh.simulate(s, ws)
	detail, ipc, rec := sh.describe(v)
	finish(detail, ipc, rec, checked)
	finished = true
	return v
}

// SortedResultKeys exposes the memoized run keys (for tests).
func (wb *Workbench) SortedResultKeys() []string { return wb.runs.keys() }
