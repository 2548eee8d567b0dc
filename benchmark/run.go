package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"graphmem/internal/graph"
	"graphmem/internal/harness"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/sim"
)

// timedSpan is the root span of a timed section; the ledger is taken
// over what hangs under these.
const timedSpan = "bench.timed"

// runConfig is one run of one workload: what the driver's command line
// (or the full run's parent process) asks of a child.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	workers  int
	sz       sizes
	tmpRoot  string    // directory under which the run keeps its files
	log      io.Writer // human-readable progress and metric lines
}

// env is the state one run threads through its workload.
type env struct {
	runConfig
	tr   *tracer // nil when untraced
	dir  string  // this run's scratch directory, removed at exit
	cpus []int   // the cores the process may use, as it found them; nil: unknown

	inTimed    atomic.Bool
	openBuilds atomic.Int32
	edgesTimed atomic.Int64 // edges of graphs built inside timed sections

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string           // first few check failures, for the log
	layer     map[string]float64 // per-layer metrics gathered so far
	cleanups  []func()

	// What checkPhase saw over the workload's points.
	gatherStart   int64   // latest first data-dependent access, in instructions
	gatherShare   float64 // smallest dependent share of a measured window
	gatherChecked int

	// liveRunS is the seconds the harness measured around the live
	// simulations of the last sweep (its own /metrics numbers).
	liveRunS float64
	// serverPeakMB is the gmserved child's peak RSS: on serve_warm the
	// program under test is the child, not this process.
	serverPeakMB float64
	// cpuClock reads the CPU time the program under test has consumed:
	// this process's, unless a workload points it at its child.
	cpuClock func() time.Duration
}

// fail records one failed operation (a point, sweep or request whose
// output check did not hold).
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	e.failed++
	if len(e.problems) < 10 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

func (e *env) attempt(n int) {
	e.mu.Lock()
	e.attempted += n
	e.mu.Unlock()
}

func (e *env) set(name string, v float64) {
	e.mu.Lock()
	e.layer[name] = v
	e.mu.Unlock()
}

func (e *env) noteGraph(g *graph.Graph) {
	if e.inTimed.Load() {
		e.edgesTimed.Add(g.NumEdges())
	}
}

// onExit registers a release (kill a child, remove a directory) that
// must happen however the run ends.
func (e *env) onExit(fn func()) {
	e.mu.Lock()
	e.cleanups = append(e.cleanups, fn)
	e.mu.Unlock()
}

func (e *env) cleanup() {
	e.mu.Lock()
	fns := e.cleanups
	e.cleanups = nil
	e.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// A workload prepares its inputs in setup, does one unit of timed work
// per pass, and releases what setup made in teardown. setup may run
// several times in a run (set-up time is reported as a median), each
// time after the previous teardown.
type workload interface {
	setup(e *env, parent int) error
	pass(e *env, p *pass) error
	// probes runs after the passes of a traced run: layer measurements
	// that are not part of the workload itself.
	probes(e *env, parent int) error
	teardown(e *env)
}

// pass collects what one pass produced.
type pass struct {
	e      *env
	n      int // 0 for the run's first pass
	root   int
	wall   time.Duration // sum of the timed sections
	cpu    time.Duration // CPU time the program under test consumed in them
	instr  int64         // instructions simulated live in them (warm-up + measured, all cores)
	digest []byte        // sha256 of the pass's outputs
	// allocMB overrides the in-process TotalAlloc delta when the program
	// under test is another process (serve_warm).
	allocMB float64
}

// timed runs fn as a timed section: its duration adds to the pass wall
// and, in a traced run, it is the root the layer ledger hangs under.
func (p *pass) timed(fn func(parent int)) {
	id := p.e.tr.begin(timedSpan, p.root)
	p.e.tr.scope(id)
	p.e.inTimed.Store(true)
	cpu0, t0 := p.e.cpuClock(), time.Now()
	fn(id)
	p.wall += time.Since(t0)
	p.cpu += p.e.cpuClock() - cpu0
	p.e.inTimed.Store(false)
	p.e.tr.end(id)
}

// layerCall times one call into a layer as a child span.
func (e *env) layerCall(name string, parent int, fn func()) time.Duration {
	id := e.tr.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	e.tr.end(id)
	return d
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wColdPoint:
		return &coldPoint{}, nil
	case wDetailSim:
		return &detailSim{}, nil
	case wSweepCold:
		return &sweepCold{}, nil
	case wSweepWarm:
		return &sweepWarm{}, nil
	case wMulticore:
		return &multicoreWeave{}, nil
	case wServeWarm:
		return &serveWarm{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload measured. line() is the
// driver's last-line JSON; the full run reads the whole struct through
// -report.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Passes    int                    `json:"passes"`
	SetupReps int                    `json:"setup_reps"`
	Digest    string                 `json:"digest"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Host      hostInfo               `json:"host"`
	Spans     []span                 `json:"spans,omitempty"`
}

// line is the result object the benchmark contract asks for on the last
// line of standard output: end-to-end metrics from an untraced run,
// per-layer metrics from a traced one.
func (r *runResult) line() ([]byte, error) {
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.PerLayer
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// A run repeats set-up and reports the median: at least three times and
// for at least setupFloor, so that a set-up of milliseconds is a median
// of many, but no further once another repetition would pass setupBudget.
const (
	setupFloor  = 500 * time.Millisecond
	setupBudget = 6 * time.Second
)

func newEnv(cfg runConfig) *env {
	e := &env{runConfig: cfg, layer: make(map[string]float64), cpuClock: selfCPU, cpus: allowedCPUs()}
	if cfg.traced {
		e.tr = newTracer()
	}
	return e
}

// run executes the run: set-up (repeated, median reported), passes for
// e.seconds, output checks, and in a traced run the layer probes. It
// returns an error only when the run could not be carried out; failed
// checks are reported in the result. The caller calls e.cleanup.
func (e *env) run() (res *runResult, err error) {
	cfg := e.runConfig
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.workers < 1 || cfg.workers > runtime.NumCPU() {
		return nil, fmt.Errorf("-j %d: want 1..nproc (%d); the load may not outnumber the cores", cfg.workers, runtime.NumCPU())
	}
	// The harness reports unknown names and impossible windows by
	// panicking; turn that into this run's error.
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%s: panic: %v", cfg.workload, p)
		}
	}()
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(cfg.tmpRoot, "run-"); err != nil {
		return nil, err
	}
	e.onExit(func() { os.RemoveAll(e.dir) })
	defer w.teardown(e)
	// Compiling a program under test is a build step, not set-up: it
	// happens once, before the first set-up and outside setup_s.
	if b, ok := w.(interface{ build(*env) error }); ok {
		if err := b.build(e); err != nil {
			return nil, fmt.Errorf("%s build: %w", cfg.workload, err)
		}
	}

	// Set-up, repeated.
	var setups []float64
	var spent time.Duration
	for rep := 0; ; rep++ {
		e.tr.setRep(rep)
		root := e.tr.begin("bench.setup", -1)
		t0 := time.Now()
		e.prime(root)
		if err := w.setup(e, root); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		d := time.Since(t0)
		e.tr.end(root)
		setups = append(setups, d.Seconds())
		spent += d
		if (len(setups) >= 3 && spent >= setupFloor) || spent+d > setupBudget {
			break
		}
		w.teardown(e)
	}
	fmt.Fprintf(cfg.log, "%s: set-up x%d, median %.3f s\n", cfg.workload, len(setups), median(setups))

	// What set-up left behind is not the passes' memory: give it back
	// and measure the peak from here.
	debug.FreeOSMemory()
	resetPeakRSS()

	if _, ok := w.(interface{ wakeful() }); ok {
		defer e.keepAwake()()
	}

	// Passes.
	var walls, cpus, allocs, mips []float64
	var first []byte
	var cpuTimed time.Duration
	var ms runtime.MemStats
	start := time.Now()
	for n := 0; ; n++ {
		if n >= cfg.sz.minPasses && time.Since(start).Seconds()+median(walls)/2 >= cfg.seconds {
			break
		}
		runtime.GC()
		e.tr.setRep(n)
		p := &pass{e: e, n: n, root: e.tr.begin("bench.pass", -1), allocMB: -1}
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		if err := w.pass(e, p); err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", cfg.workload, n, err)
		}
		runtime.ReadMemStats(&ms)
		e.tr.end(p.root)
		cpuTimed += p.cpu
		if p.allocMB < 0 {
			p.allocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, p.allocMB)
		mips = append(mips, float64(p.instr)/1e6/p.wall.Seconds())
		if first == nil {
			first = p.digest
		} else if string(first) != string(p.digest) {
			e.fail("pass %d digest %x differs from pass 0 digest %x: outputs do not repeat", n, p.digest[:6], first[:6])
		}
		fmt.Fprintf(cfg.log, "%s: pass %d  %.3f s, %.3f CPU-s\n", cfg.workload, n, p.wall.Seconds(), p.cpu.Seconds())
	}
	_, peak, _ := procRSS(os.Getpid()) // 0 where there is no /proc
	if e.serverPeakMB > 0 {
		peak = e.serverPeakMB
	}
	res = &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		Passes: len(walls), SetupReps: len(setups),
		Digest: hex.EncodeToString(first),
		Host:   captureHost(),
		EndToEnd: map[string]metricValue{
			"setup_s": {median(setups), "s"},
			// The lower quartile of the passes, which of three long passes
			// is the fastest: what disturbs a pass on a shared host (stolen
			// cores, a neighbour in the cache) only ever adds time, but the
			// fastest of dozens of short passes is the luckiest one.
			"wall_s":      {lowerQuartile(walls), "s"},
			"cpu_s":       {lowerQuartile(cpus), "s"},
			"peak_rss_mb": {peak, "MB"},
		},
	}

	if cfg.traced {
		root := e.tr.begin("bench.probes", -1)
		if err := w.probes(e, root); err != nil {
			return nil, fmt.Errorf("%s probes: %w", cfg.workload, err)
		}
		e.tr.end(root)
		res.Spans = e.tr.closed()
		e.ledgerMetrics(res.Spans, len(walls), cpuTimed)
		e.set("sim.mips", median(mips))
		e.set("host.wall_median_s", median(walls))
		e.set("kernels.gather_start_minstr", float64(e.gatherStart)/1e6)
		e.set("kernels.gather_share", e.gatherShare)
		e.set("host.alloc_mb", median(allocs))
		res.PerLayer = make(map[string]metricValue, len(perLayerSpecs))
		for _, m := range perLayerSpecs {
			res.PerLayer[m.Name] = metricValue{e.layer[m.Name], m.Unit}
		}
	}

	res.Attempted, res.Failed, res.Problems = e.attempted, e.failed, e.problems
	res.Correct = e.failed == 0 && e.attempted > 0
	return res, nil
}

// ledgerMetrics turns the traced passes' spans into the per-pass layer
// times and the share of the timed sections that layer calls account
// for. cpuTimed is the CPU time the passes consumed.
func (e *env) ledgerMetrics(spans []span, passes int, cpuTimed time.Duration) {
	byName, durByName, total := ledger(spans, timedSpan)
	perPass := func(name string) float64 { return byName[name].Seconds() / float64(passes) }
	e.set("graph.build_s", perPass("graph.build"))
	if edges := e.edgesTimed.Load(); edges > 0 {
		e.set("graph.edges", float64(edges)/float64(passes))
		e.set("graph.build_ns_per_edge", float64(byName["graph.build"].Nanoseconds())/float64(edges))
	}
	// cold_point has no such spans (RunSingle holds the calls) and reports
	// these two from its probes.
	if _, ok := byName["kernels.prepare"]; ok {
		e.set("kernels.prepare_s", perPass("kernels.prepare"))
	}
	if _, ok := byName["sim.run"]; ok {
		e.set("sim.run_s", perPass("sim.run"))
	}
	e.set("sim.newsystem_s", perPass("sim.newsystem"))
	// The sweep's whole span, not its self time: graph builds and live
	// simulations run inside Experiment.
	sweep := durByName["harness.experiment"] + durByName["harness.render"]
	e.set("harness.sweep_s", sweep.Seconds()/float64(passes))
	if total > 0 {
		e.set("trace.accounted_share", 1-byName[timedSpan].Seconds()/total.Seconds())
		if _, parallel := e.layer["harness.live_runs"]; parallel {
			// CPU the sweep's workers could have used, and the share of
			// the CPU actually used that neither a graph build nor a live
			// simulation explains (scheduler, memo, store, rendering).
			e.set("harness.cpu_util", cpuTimed.Seconds()/(total.Seconds()*float64(e.workers)))
			known := perPass("graph.build") + e.liveRunS
			e.set("harness.unaccounted_share", max(0, 1-known*float64(passes)/cpuTimed.Seconds()))
		}
	}
}

// keepAwake keeps every core out of halt until the returned function is
// called: one spinner per core (this binary, -idle-spin) in the kernel's
// idle scheduling class, which runs only while nothing else wants the
// core and is preempted the moment something does. Workloads whose passes
// are made of thread wake-ups ask for it (wakeful): on a virtual machine
// the time to wake a halted core is the hypervisor's and changes with its
// other guests, and it is not the program's. It is what fixing the
// frequency governor is on a bare-metal box. Best effort: a spinner that
// cannot start, or cannot enter the idle class and so exits, is not
// replaced.
func (e *env) keepAwake() (stop func()) {
	var spinners []*exec.Cmd
	if exe, err := os.Executable(); err == nil {
		for _, cpu := range e.cpus {
			cmd := exec.Command(exe, "-idle-spin")
			dieWithParent(cmd)
			if err := startOn(cmd, []int{cpu}); err != nil {
				fmt.Fprintf(e.log, "%s: no spinner on core %d: %v\n", e.workload, cpu, err)
				continue
			}
			spinners = append(spinners, cmd)
		}
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			for _, cmd := range spinners {
				_ = cmd.Process.Kill() // already exited is fine
				_ = cmd.Wait()         // reaps; "signal: killed" is the expected outcome
			}
		})
	}
	e.onExit(stop)
	return stop
}

// prime runs one tiny point so that the simulator's code is paged in
// and the heap has grown before anything is timed, and so that every
// workload's set-up time is a real, repeatable amount of work.
func (e *env) prime(parent int) {
	id := e.tr.begin("bench.prime", parent)
	defer e.tr.end(id)
	space := mem.NewSpace(0)
	inst := kernels.NewPR(graph.Kron(12, 8, 1), space)
	cfg := harness.Bench().BaseConfig(1).WithSDCLP().WithWindows(100_000, 100_000)
	sim.RunSingleCore(cfg, sim.Workload{Name: "pr.prime", Inst: inst, Space: space})
}

// digestOf hashes the byte slices in order.
func digestOf(parts ...[]byte) []byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}
