// Package graphmem is a Go reproduction of "Practically Tackling Memory
// Bottlenecks of Graph-Processing Workloads" (Jamet et al., IPDPS
// 2024): the Side Data Cache (SDC) + Large Predictor (LP)
// microarchitecture proposal, the ChampSim-style simulation substrate
// it is evaluated on, the GAP graph kernels and synthetic inputs that
// drive it, and a harness regenerating every table and figure of the
// paper's evaluation.
//
// The package is a façade over the internal packages; the typical entry
// points are:
//
//	profile, _ := graphmem.ProfileByName("small")
//	wb := graphmem.NewWorkbench(profile)
//	fig7 := wb.Fig7(nil)           // all 36 workloads, 6 configurations
//	fig7.Table().Render(os.Stdout)
//
// or, for a single simulation:
//
//	cfg := graphmem.TableI(1).WithSDCLP()
//	res := wb.RunSingle(cfg, graphmem.WorkloadID{Kernel: "pr", Graph: "kron"})
//	fmt.Println(res.IPC())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package graphmem

import (
	"flag"
	"fmt"
	"os"

	"graphmem/internal/check"
	corepkg "graphmem/internal/core"
	"graphmem/internal/graph"
	"graphmem/internal/harness"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/obs"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
	"graphmem/internal/stats"
	"graphmem/internal/store"
	"graphmem/internal/trace"
)

// Re-exported core types. The aliases keep the full method sets.
type (
	// Config is a complete machine configuration (Table I plus the
	// paper's variants).
	Config = sim.Config
	// Workload binds a prepared kernel instance to a core slot.
	Workload = sim.Workload
	// Result is a single-core simulation outcome.
	Result = sim.Result
	// MultiResult is a multi-core simulation outcome.
	MultiResult = sim.MultiResult
	// Workbench caches graphs and runs for one reproduction profile.
	Workbench = harness.Workbench
	// Profile is a reproduction scale (bench / small / full).
	Profile = harness.Profile
	// WorkloadID names a kernel x graph combination.
	WorkloadID = harness.WorkloadID
	// Table is a renderable experiment result.
	Table = harness.Table
	// Graph is the CSR/CSC sparse graph type.
	Graph = graph.Graph
	// Space is a per-core synthetic address-space allocator.
	Space = mem.Space
	// Tracer is the instrumentation handle kernels emit accesses to.
	Tracer = trace.Tracer
	// KernelInstance is a kernel prepared on a concrete graph.
	KernelInstance = kernels.Instance
	// BudgetEntry is one row of the Table IV hardware budget.
	BudgetEntry = corepkg.BudgetEntry
	// CoreStats is the full measurement-window counter set.
	CoreStats = stats.CoreStats
	// Manifest is the machine-readable record of one run or sweep.
	Manifest = obs.Manifest
	// EpochSample is one entry of the per-epoch telemetry series.
	EpochSample = obs.EpochSample
	// RecorderSummary is the flight-recorder outcome attached to
	// recorded results and manifests.
	RecorderSummary = obs.RecSummary
	// OccupancySample is one point of the recorder's occupancy timeline.
	OccupancySample = obs.OccSample
	// TraceRun names one run's recorder summary for Perfetto export.
	TraceRun = obs.TraceRun
	// MetricsServer is the run ledger (Workbench.Metrics): progress
	// lines with ETA, and the Prometheus/expvar endpoint behind
	// gmsim/gmreport -metrics and gmserved.
	MetricsServer = obs.Metrics
	// ProfilingFlags holds the shared -cpuprofile/-memprofile/-trace
	// command-line profiling options.
	ProfilingFlags = obs.ProfileFlags
	// CheckLevel selects how much differential checking a run performs
	// (CheckOff, CheckOracle, CheckFull).
	CheckLevel = check.Level
	// CheckSummary is the checker outcome attached to checked results.
	CheckSummary = check.Summary
	// CheckViolation is one detailed checker finding with provenance.
	CheckViolation = check.Violation
	// SamplePlan is the statistical sampler's deterministic schedule
	// (Workbench.Sampling / Config.WithSampling).
	SamplePlan = sample.Plan
	// SampleEstimate is a sampled run's per-metric confidence-interval
	// result (Result.Sampling / Manifest.Sampling).
	SampleEstimate = sample.Estimate
	// ResultStore is the disk-backed content-addressed simulation result
	// store (Workbench.Store / gmserved); with sampling on it also keeps
	// the warm-up checkpoints (Config.WithWarmStore).
	ResultStore = store.Store
	// RunSpec is one fully specified run and its structural identity,
	// shared by the memo, the disk store, gmserved and manifests
	// (Workbench.Spec derives it).
	RunSpec = harness.RunSpec
	// StatInterval is a point estimate with a CLT confidence interval.
	StatInterval = stats.Interval
)

// Differential-checking levels (Config.CheckLevel / Workbench.CheckLevel).
const (
	// CheckOff disables checking; runs pay no overhead.
	CheckOff = check.Off
	// CheckOracle verifies every load against the architectural shadow.
	CheckOracle = check.OracleOnly
	// CheckFull adds periodic structural invariant sweeps to the oracle.
	CheckFull = check.Full
)

// ParseCheckLevel parses a -check flag value ("off", "oracle", "full").
func ParseCheckLevel(s string) (CheckLevel, error) { return check.ParseLevel(s) }

// ParseSamplePlan parses a -sample flag value "period,len,offset[,warm]"
// ("" = disabled).
func ParseSamplePlan(s string) (SamplePlan, error) { return sample.ParsePlan(s) }

// ResultStateVersion is the simulator behaviour version keying the
// result store: bumping it (on any change that alters simulated
// counters or warm state) orphans every stored result and warm-up (use
// it in CI cache keys).
const ResultStateVersion = sim.StateVersion

// NewResultStore opens (creating if needed) a disk-backed result store
// rooted at dir; assign it to Workbench.Store (the -store flag).
func NewResultStore(dir string) (*ResultStore, error) { return harness.OpenResultStore(dir) }

// StoreSummary renders the one-line result-store outcome the CLI tools
// print after a sweep.
func StoreSummary(s *ResultStore) string { return harness.StoreSummary(s) }

// ParseStoreSize parses a byte-size flag value ("64M", "2G", plain
// bytes) for result-store caps.
func ParseStoreSize(s string) (int64, error) { return store.ParseSize(s) }

// ExperimentIDs lists every experiment id 'all' expands to, in report
// order.
var ExperimentIDs = harness.ExperimentIDs

// OptInExperimentIDs lists the experiments 'all' leaves out and a
// caller must name ("latency", "prefetch").
var OptInExperimentIDs = harness.OptInExperimentIDs

// SubsetWorkloads builds a workload filter from comma-separated kernel
// and graph lists; nil means all workloads.
func SubsetWorkloads(kernelsList, graphsList string) ([]WorkloadID, error) {
	return harness.SubsetWorkloads(kernelsList, graphsList)
}

// ConfigByName derives a named machine configuration variant from base
// ("baseline", "sdclp", "topt", ...).
func ConfigByName(base Config, name string) (Config, error) {
	return harness.ConfigByName(base, name)
}

// RelErr returns |est-ref|/|ref| (0 for 0/0, +Inf for est/0).
func RelErr(est, ref float64) float64 { return stats.RelErr(est, ref) }

// TableI returns the paper's baseline machine configuration for the
// given core count.
func TableI(cores int) Config { return sim.TableI(cores) }

// NewWorkbench creates a workbench for a profile.
func NewWorkbench(p Profile) *Workbench { return harness.NewWorkbench(p) }

// ProfileByName resolves "bench", "small" (default) or "full".
func ProfileByName(name string) (Profile, error) { return harness.ProfileByName(name) }

// BenchProfile returns the fast, shrunk-hierarchy profile.
func BenchProfile() Profile { return harness.Bench() }

// SmallProfile returns the default Table-I-machine profile.
func SmallProfile() Profile { return harness.Small() }

// FullProfile returns the largest supported profile.
func FullProfile() Profile { return harness.Full() }

// AllWorkloads lists the 36 kernel x graph combinations.
func AllWorkloads() []WorkloadID { return harness.AllWorkloads() }

// KernelNames lists the six GAP kernels in Table II order.
func KernelNames() []string { return kernels.Names() }

// GraphNames lists the six inputs in Table III order.
func GraphNames() []string { return harness.GraphNames }

// RunSingleCore simulates one workload alone on the given machine.
func RunSingleCore(cfg Config, w Workload) *Result { return sim.RunSingleCore(cfg, w) }

// RunMultiCore simulates a multi-programmed mix sharing one machine.
func RunMultiCore(cfg Config, ws []Workload) *MultiResult { return sim.RunMultiCore(cfg, ws) }

// NewSpace creates the synthetic address space for a core slot.
func NewSpace(core int) *Space { return mem.NewSpace(core) }

// NewKernel prepares the named GAP kernel on g in space (e.g. "pr").
func NewKernel(name string, g *Graph, space *Space) KernelInstance {
	build, ok := kernels.Registry()[name]
	if !ok {
		panic("graphmem: unknown kernel " + name)
	}
	return build(g, space)
}

// MakeWorkload bundles a prepared kernel into a schedulable workload.
func MakeWorkload(name string, inst KernelInstance, space *Space) Workload {
	return Workload{Name: name, Inst: inst, Space: space}
}

// GenerateMixes draws deterministic 4-thread workload mixes, as the
// multi-core evaluation does.
func GenerateMixes(pool []WorkloadID, n int, seed uint64) [][]WorkloadID {
	return harness.GenerateMixes(pool, n, seed)
}

// NewManifest starts a run manifest for the named tool.
func NewManifest(tool string) *Manifest { return obs.NewManifest(tool) }

// DeriveMetrics computes the manifest's headline metrics from final
// window counters.
func DeriveMetrics(s *CoreStats) obs.Derived { return obs.DeriveMetrics(s) }

// RegisterProfilingFlags installs -cpuprofile, -memprofile and -trace
// on a flag set; call Start() on the result after flag parsing.
func RegisterProfilingFlags(fs *flag.FlagSet) *ProfilingFlags {
	return obs.RegisterProfileFlags(fs)
}

// RunOptions are the run settings gmsim, gmreport and gmserved share:
// RegisterRunFlags declares each flag once, and gmserved's request
// bodies decode their profile and windows into the same struct.
type RunOptions struct {
	Profile string `json:"profile"`
	// Warmup/Measure, when positive, override the profile's single-core
	// windows (they are part of every run's identity, so overridden runs
	// cache separately).
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`

	Check         string `json:"-"`
	Sample        string `json:"-"`
	Store         string `json:"-"`
	Metrics       string `json:"-"`
	Jobs          int    `json:"-"`
	Prefetchers   string `json:"-"`
	BranchPenalty int64  `json:"-"`
}

// RegisterRunFlags installs the shared run flags on a flag set; call
// NewWorkbench on the result after flag parsing.
func RegisterRunFlags(fs *flag.FlagSet, defaultProfile string) *RunOptions {
	o := &RunOptions{}
	fs.StringVar(&o.Profile, "profile", defaultProfile, "scale profile: bench|small|full")
	fs.Int64Var(&o.Warmup, "warmup", 0, "override the single-core warm-up instructions")
	fs.Int64Var(&o.Measure, "measure", 0, "override the single-core measured instructions")
	fs.StringVar(&o.Check, "check", "off", "differential checking: off|oracle|full (exit 1 on any violation)")
	fs.StringVar(&o.Sample, "sample", "", "run eligible single-core simulations under the statistical sampler \"period,len,offset[,warm]\" (instructions); results are CI estimates")
	fs.StringVar(&o.Store, "store", "", "disk-backed result store directory (serves repeated runs, single- and multi-core, from disk, and with -sample keeps their functional warm-ups; output is byte-identical either way)")
	fs.StringVar(&o.Metrics, "metrics", "", "serve live metrics (Prometheus text + expvar) on this address, e.g. :6060")
	fs.IntVar(&o.Jobs, "j", 0, "max concurrent simulations (0 = all host cores); output is identical at any -j")
	fs.StringVar(&o.Prefetchers, "pf", "", "prefetcher preset for the base machine: none|nextline|spp|stride|imp|pickle|spp+imp (empty = Table I default)")
	fs.Int64Var(&o.BranchPenalty, "bp", 0, "branch-miss penalty in cycles on ~1/32 of records (0 = off, the default machine)")
	return o
}

// ScaleProfile resolves -profile with the -warmup/-measure overrides;
// -pf/-bp, when set, apply to the machine its BaseConfig returns, from
// which every config a tool or experiment runs is derived.
func (o RunOptions) ScaleProfile() (Profile, error) {
	p, err := ProfileByName(o.Profile)
	if err != nil {
		return p, err
	}
	if o.Warmup > 0 {
		p.Warmup = o.Warmup
	}
	if o.Measure > 0 {
		p.Measure = o.Measure
	}
	if pf, bp, base := o.Prefetchers, o.BranchPenalty, p.BaseConfig; pf != "" || bp != 0 {
		p.BaseConfig = func(cores int) Config {
			return base(cores).WithPrefetchers(pf).WithBranchMissPenalty(bp)
		}
	}
	return p, nil
}

// NewWorkbench builds the workbench the options describe — opening the
// store and, with -metrics, serving its ledger (tool prefixes the
// notice) — and fails with Config.Validate's reason when the requested
// modes do not compose on the base machine.
func (o RunOptions) NewWorkbench(tool string) (*Workbench, error) {
	profile, err := o.ScaleProfile()
	if err != nil {
		return nil, err
	}
	wb := NewWorkbench(profile)
	wb.Parallelism = o.Jobs
	if wb.CheckLevel, err = ParseCheckLevel(o.Check); err != nil {
		return nil, err
	}
	if wb.Sampling, err = ParseSamplePlan(o.Sample); err != nil {
		return nil, err
	}
	if o.Store != "" {
		if wb.Store, err = NewResultStore(o.Store); err != nil {
			return nil, err
		}
		wb.Metrics.AttachStore(wb.Store)
	}
	if _, err := wb.Configure(profile.BaseConfig(1)); err != nil {
		return nil, err
	}
	if o.Metrics != "" {
		addr, err := wb.Metrics.Serve(o.Metrics)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: serving metrics at http://%s/metrics\n", tool, addr)
	}
	return wb, nil
}

// WritePerfettoTrace writes flight-recorder timelines as a
// Perfetto-loadable Chrome trace-event JSON file.
var WritePerfettoTrace = obs.WritePerfettoFile

// Budget computes the Table IV per-core hardware budget.
func Budget(sdcBytes, lpEntries, sdcDirEntries, cores int) []BudgetEntry {
	return corepkg.Budget(sdcBytes, lpEntries, sdcDirEntries, cores)
}

// BudgetTotalKB sums a hardware budget in KB.
func BudgetTotalKB(rows []BudgetEntry) float64 { return corepkg.TotalKB(rows) }

// Graph I/O: load real inputs (SNAP-style edge lists) and cache built
// CSR graphs in a compact binary format.
var (
	// ReadEdgeList parses "src dst [w]" text (SNAP/GAP format).
	ReadEdgeList = graph.ReadEdgeList
	// ReadBinaryGraph loads a graph written by (*Graph).WriteBinary.
	ReadBinaryGraph = graph.ReadBinary
)

// Graph generators (synthetic stand-ins for Table III; see DESIGN.md).
var (
	// Kron generates a Graph500-style Kronecker graph.
	Kron = graph.Kron
	// Urand generates a uniform random graph.
	Urand = graph.Urand
	// PowerLaw generates a preferential-attachment graph.
	PowerLaw = graph.PowerLaw
	// WebLike generates a locality-rich power-law web graph.
	WebLike = graph.WebLike
	// RoadGrid generates a weighted road-network lattice.
	RoadGrid = graph.RoadGrid
)
