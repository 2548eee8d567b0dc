package main

import (
	"encoding/json"
	"fmt"

	"graphmem/internal/harness"
	"graphmem/internal/kernels"
	"graphmem/internal/obs"
	"graphmem/internal/sim"
	"graphmem/internal/stats"
	"graphmem/internal/trace"
)

// point is one (kernel, graph, machine) simulation.
type point struct{ kernel, graph, config string }

func (p point) id() harness.WorkloadID {
	return harness.WorkloadID{Kernel: p.kernel, Graph: p.graph}
}

func (p point) String() string { return p.kernel + "." + p.graph + "/" + p.config }

// simTotals sums the simulated counters of a workload's points. Host
// speed-ups must leave every one of them unchanged.
type simTotals struct {
	stats  stats.CoreStats
	reruns int
}

func (t *simTotals) add(s *stats.CoreStats, reruns int) {
	t.stats.Add(s)
	t.reruns += reruns
}

// report publishes the simulated per-layer metrics, and host time per
// simulated event so that host cost follows the events simulated. The
// counters cover the measured windows only, so simSeconds, which covers
// the warm-ups too, is taken in proportion to the instructions: an
// estimate.
func (t *simTotals) report(e *env, simSeconds float64, warm, measure int64) {
	simSeconds *= float64(measure) / float64(warm+measure)
	s := &t.stats
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	e.set("sim.cycles", float64(s.Cycles))
	e.set("sim.instructions", float64(s.Instructions))
	e.set("sim.ipc", s.IPC())
	e.set("kernels.reruns", float64(t.reruns))
	e.set("cpu.avg_load_latency_cycles", s.AvgLoadLatency())
	e.set("cache.l1d_mpki", s.L1D.MPKI(s.Instructions))
	e.set("cache.l2_mpki", s.L2.MPKI(s.Instructions))
	e.set("cache.llc_mpki", s.LLC.MPKI(s.Instructions))
	e.set("cache.sdc_hit_ratio", ratio(s.SDC.Hits, s.SDC.Accesses()))
	e.set("tlb.dtlb_mpki", s.DTLB.MPKI(s.Instructions))
	e.set("core.lp_averse_share", s.LPAverseFraction())
	e.set("core.lp_table_miss_ratio", ratio(s.LPTableMisses, s.LPPredAverse+s.LPPredFriendly))
	e.set("coherence.sdcdir_lookups", float64(s.SDCDirLookups))
	// stats exports no demand-hit-on-prefetched-line counter, so no
	// useful-to-issued ratio can be taken from outside; the work the
	// prefetchers did is their fills.
	e.set("prefetch.fills_pki", float64(s.L1D.Prefetches+s.SDC.Prefetches+s.L2.Prefetches+s.LLC.Prefetches)*1000/float64(max(1, s.Instructions)))
	e.set("dram.reads", float64(s.DRAMReads))
	e.set("dram.writes", float64(s.DRAMWrites))
	e.set("dram.row_hit_ratio", s.DRAMRowHitRate())
	if simSeconds > 0 {
		e.set("sim.host_ns_per_l1d_access", simSeconds*1e9/float64(max(1, s.L1D.Accesses()+s.SDC.Accesses())))
		e.set("sim.host_ns_per_dram_read", simSeconds*1e9/float64(max(1, s.DRAMReads)))
	}
}

// checkStats is the output check every simulated point passes through:
// the measured window is filled (a record retires its non-memory
// instructions with it, so the window may overshoot by less than one
// record), time advanced, and the counters of the levels agree with each
// other: every memory operation is one demand access (hit or miss) of a
// first-level structure, no more loads are served below the first level
// than it missed, and every DRAM read has a row outcome.
func checkStats(what string, s *stats.CoreStats, measure int64) error {
	const maxRecord = 1 << 16 // trace.Record.NonMem is a uint16
	first := s.L1D.Accesses() + s.SDC.Accesses()
	firstMisses := s.L1D.Misses + s.SDC.Misses
	below := s.ServedL2 + s.ServedLLC + s.ServedRemote + s.ServedDRAM
	served := below + s.ServedL1D + s.ServedSDC
	switch {
	case s.Instructions < measure || s.Instructions >= measure+maxRecord:
		return fmt.Errorf("%s: %d instructions measured, window is %d", what, s.Instructions, measure)
	case s.Cycles <= 0:
		return fmt.Errorf("%s: %d cycles", what, s.Cycles)
	case s.Loads+s.Stores != s.MemOps:
		return fmt.Errorf("%s: loads %d + stores %d != memory ops %d", what, s.Loads, s.Stores, s.MemOps)
	case first != s.MemOps:
		return fmt.Errorf("%s: L1D and SDC saw %d demand accesses (hits + misses), %d memory ops retired", what, first, s.MemOps)
	case served <= 0 || served > s.Loads:
		return fmt.Errorf("%s: %d loads served by some level, %d loads retired", what, served, s.Loads)
	case below > firstMisses:
		return fmt.Errorf("%s: %d loads served below the first level, which missed %d times", what, below, firstMisses)
	case s.DRAMRowHits+s.DRAMRowMisses != s.DRAMReads:
		return fmt.Errorf("%s: %d row hits + %d row misses != %d DRAM reads", what, s.DRAMRowHits, s.DRAMRowMisses, s.DRAMReads)
	}
	return nil
}

// checkResult checks one single-core result against the run asked for.
func checkResult(res *sim.Result, cfg sim.Config, p point) error {
	if res.Config != cfg.Name || res.Workload != p.id().String() {
		return fmt.Errorf("%s: result is %s/%s", p, res.Workload, res.Config)
	}
	return checkStats(p.String(), &res.Stats, cfg.Measure)
}

// windowSink follows a kernel's records through an instruction window
// with no simulator attached, stopping it once the window is full as the
// simulator's sink would. It notes where the data-dependent accesses
// begin — those whose address comes from an earlier load, the gathers
// the paper is about — and how many of the measured window's records
// they are.
type windowSink struct {
	warm, limit  int64
	records      int64
	instructions int64
	firstDep     int64 // instructions retired at the first dependent access; 0 before it
	measured     int64 // records of the measured window
	measuredDep  int64 // dependent ones among them
}

func (s *windowSink) Access(r trace.Record) bool {
	s.records++
	s.instructions += int64(r.NonMem) + 1
	dep := r.DepDist > 0
	if dep && s.firstDep == 0 {
		s.firstDep = s.instructions
	}
	if s.instructions > s.warm {
		s.measured++
		if dep {
			s.measuredDep++
		}
	}
	return s.instructions < s.limit
}

// fill runs inst until the window is full, again from its start when it
// finishes early, as the simulator does.
func (s *windowSink) fill(inst kernels.Instance) {
	for s.instructions < s.limit {
		before := s.records
		inst.Run(trace.New(s))
		if s.records == before {
			return
		}
	}
}

// checkPhase fails a point whose warm-up ends before its kernel's first
// data-dependent access: its measured window would be an initialisation
// stream (pr spends 6 instructions on every vertex before its first
// gather), and every number taken from it would describe that. It keeps
// the latest such start and the smallest dependent share over the
// workload's points for the kernels.gather_* metrics.
func (e *env) checkPhase(wl sim.Workload, warm, measure int64) {
	sink := &windowSink{warm: warm, limit: warm + measure}
	sink.fill(wl.Inst)
	share := float64(sink.measuredDep) / float64(max(1, sink.measured))
	if sink.firstDep == 0 || sink.firstDep > warm || sink.measuredDep == 0 {
		e.fail("%s: first data-dependent access after %d instructions (0: none), warm-up is %d: the measured window is not the gather phase", wl.Name, sink.firstDep, warm)
	}
	e.mu.Lock()
	e.gatherStart = max(e.gatherStart, sink.firstDep)
	if e.gatherChecked == 0 || share < e.gatherShare {
		e.gatherShare = share
	}
	e.gatherChecked++
	e.mu.Unlock()
}

// ---- cold_point -----------------------------------------------------

// coldPoint runs each point through Workbench.RunSingle on a fresh
// workbench, as gmsim does: graph build, kernel prepare, machine
// construction and simulation all happen inside that one call; then the
// result is encoded. The graph build is seen through the wrapped builder
// and the simulation through the seconds the harness itself measures
// around it (graphmem_run_seconds).
type coldPoint struct {
	prof     harness.Profile
	totals   simTotals
	simS     float64 // harness-measured simulation seconds of the last pass
	prepareS float64 // kernel prepare seconds of the three points, measured once
	last     *sim.Result
}

// Three generators (R-MAT, uniform, power-law) and both machines.
var coldPoints = []point{
	{"pr", "kron", "sdclp"},
	{"cc", "urand", "baseline"},
	{"bfs", "friendster", "sdclp"},
}

func (w *coldPoint) setup(e *env, parent int) error {
	w.prof = e.profile(e.sz.pointWarm, e.sz.pointMeasure)
	return nil
}

func (w *coldPoint) teardown(*env) {}

func (w *coldPoint) pass(e *env, p *pass) error {
	w.totals, w.simS = simTotals{}, 0
	var outputs [][]byte
	for _, pt := range coldPoints {
		var wb *harness.Workbench
		var res *sim.Result
		var cfg sim.Config
		var data []byte
		var err error
		p.timed(func(sp int) {
			wb = harness.NewWorkbench(w.prof)
			wb.Parallelism = 1
			wb.Metrics = obs.NewMetrics()
			if cfg, err = harness.ConfigByName(wb.BaseConfig(), pt.config); err != nil {
				return
			}
			id := e.tr.begin("harness.run_single", sp)
			e.tr.scope(id) // the wrapped builder records graph.build under it
			res = wb.RunSingle(cfg, pt.id())
			e.tr.end(id)
			e.layerCall("sim.encode", sp, func() { data, err = sim.EncodeResult(res) })
		})
		if err != nil {
			return err
		}
		w.simS += liveRunSeconds(wb.Metrics)
		e.attempt(1)
		if err := checkResult(res, cfg, pt); err != nil {
			e.fail("%v", err)
		}
		if p.n == 0 {
			// Once, untimed, while the point's workbench still holds its
			// graph: the kernel prepared again, for the window check and for
			// kernels.prepare_s (RunSingle's own prepare is inside its span).
			var wl sim.Workload
			w.prepareS += e.layerCall("kernels.prepare", p.root, func() { wl = wb.Workload(pt.id(), 0) }).Seconds()
			e.checkPhase(wl, cfg.Warmup, cfg.Measure)
		}
		w.totals.add(&res.Stats, res.Reruns)
		w.last = res
		p.instr += cfg.Warmup + cfg.Measure
		outputs = append(outputs, data)
	}
	p.digest = digestOf(outputs...)
	return nil
}

// ---- detail_sim -----------------------------------------------------

// detailSim pushes {pr,bfs,cc,sssp}.kron x {baseline,sdclp} through
// sim directly. The graph and the kernel instances are set-up: a kernel
// re-initialises itself at every Run, so one instance serves both
// machines and every pass.
type detailSim struct {
	cfgs      [2]sim.Config
	workloads []sim.Workload
	totals    simTotals
	simS      float64
	speedup   float64
}

var detailKernels = []string{"pr", "bfs", "cc", "sssp"}

func (w *detailSim) setup(e *env, parent int) error {
	prof := e.profile(e.sz.detailWarm, e.sz.detailMeasure)
	wb := harness.NewWorkbench(prof)
	e.tr.scope(parent)
	wb.Graph("kron")
	w.workloads = w.workloads[:0]
	for _, k := range detailKernels {
		e.layerCall("kernels.prepare", parent, func() {
			w.workloads = append(w.workloads, wb.Workload(harness.WorkloadID{Kernel: k, Graph: "kron"}, 0))
		})
	}
	w.cfgs[0] = wb.BaseConfig()
	w.cfgs[1] = wb.BaseConfig().WithSDCLP()
	return nil
}

func (w *detailSim) teardown(*env) { w.workloads = nil }

func (w *detailSim) pass(e *env, p *pass) error {
	w.totals, w.simS = simTotals{}, 0
	if p.n == 0 {
		for _, wl := range w.workloads {
			e.checkPhase(wl, w.cfgs[0].Warmup, w.cfgs[0].Measure)
		}
	}
	var outputs [][]byte
	ratios := make([]float64, 0, len(w.workloads))
	for i, wl := range w.workloads {
		var ipc [2]float64
		for c, cfg := range w.cfgs {
			var res *sim.Result
			p.timed(func(sp int) {
				var sys *sim.System
				e.layerCall("sim.newsystem", sp, func() { sys = sim.NewSystem(cfg, []sim.Workload{wl}) })
				e.layerCall("sim.run", sp, func() { res = sys.RunCore0(wl) })
			})
			pt := point{detailKernels[i], "kron", cfg.Name}
			e.attempt(1)
			if err := checkResult(res, cfg, pt); err != nil {
				e.fail("%v", err)
			}
			data, err := sim.EncodeResult(res)
			if err != nil {
				return err
			}
			outputs = append(outputs, data)
			w.totals.add(&res.Stats, res.Reruns)
			p.instr += cfg.Warmup + cfg.Measure
			ipc[c] = res.IPC()
		}
		ratios = append(ratios, ipc[1]/ipc[0])
	}
	w.simS = p.wall.Seconds()
	w.speedup = stats.GeoMeanSpeedup(ratios)
	p.digest = digestOf(outputs...)
	return nil
}

// ---- multicore_weave ------------------------------------------------

// multicoreWeave runs one 8-core SDC+LP machine under the bound-weave
// engine with as many weave workers as the run has.
type multicoreWeave struct {
	cfg       sim.Config
	workloads []sim.Workload
	totals    simTotals
	simS      float64
}

var weaveMix = []harness.WorkloadID{
	{Kernel: "pr", Graph: "kron"}, {Kernel: "cc", Graph: "kron"},
	{Kernel: "bfs", Graph: "urand"}, {Kernel: "sssp", Graph: "urand"},
	{Kernel: "pr", Graph: "kron"}, {Kernel: "cc", Graph: "kron"},
	{Kernel: "bfs", Graph: "urand"}, {Kernel: "sssp", Graph: "urand"},
}

func (w *multicoreWeave) setup(e *env, parent int) error {
	prof := e.profile(0, 0)
	wb := harness.NewWorkbench(prof)
	e.tr.scope(parent)
	w.workloads = w.workloads[:0]
	for slot, id := range weaveMix {
		wb.Graph(id.Graph)
		e.layerCall("kernels.prepare", parent, func() {
			w.workloads = append(w.workloads, wb.Workload(id, slot))
		})
	}
	w.cfg = prof.BaseConfig(len(weaveMix)).WithSDCLP().
		WithWindows(prof.MixWarmup, prof.MixMeasure).
		WithBoundWeave(0, e.workers)
	return nil
}

func (w *multicoreWeave) teardown(*env) { w.workloads = nil }

func (w *multicoreWeave) pass(e *env, p *pass) error {
	if p.n == 0 {
		for _, wl := range w.workloads {
			e.checkPhase(wl, w.cfg.Warmup, w.cfg.Measure)
		}
	}
	var res *sim.MultiResult
	p.timed(func(sp int) {
		var sys *sim.System
		e.layerCall("sim.newsystem", sp, func() { sys = sim.NewSystem(w.cfg, w.workloads) })
		e.layerCall("sim.run", sp, func() { res = sim.RunMultiCoreOn(sys, w.workloads) })
	})
	w.totals, w.simS = simTotals{}, p.wall.Seconds()
	e.attempt(len(weaveMix))
	for core := range res.PerCore {
		s := &res.PerCore[core]
		if err := checkStats(fmt.Sprintf("core %d %s", core, res.Names[core]), s, w.cfg.Measure); err != nil {
			e.fail("%v", err)
		}
		w.totals.add(s, 0)
	}
	p.instr = int64(len(weaveMix)) * (w.cfg.Warmup + w.cfg.Measure)
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	p.digest = digestOf(data)
	return nil
}
