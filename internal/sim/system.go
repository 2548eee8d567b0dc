package sim

import (
	"fmt"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/coherence"
	corepkg "graphmem/internal/core"
	"graphmem/internal/cpu"
	"graphmem/internal/dram"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/obs"
	"graphmem/internal/prefetch"
	"graphmem/internal/stats"
	"graphmem/internal/tlb"
)

// ptOffset places the synthetic page-table region far inside each
// core's address window, beyond any workload allocation.
const ptOffset = mem.Addr(1) << 39

// Workload binds a prepared kernel instance to the core slot whose
// address window its regions live in.
type Workload struct {
	// Name labels the workload ("pr.kron", ...).
	Name string
	// Inst is the kernel instance, prepared with mem.NewSpace(slot).
	Inst kernels.Instance
	// Space is the address space the instance was prepared in.
	Space *mem.Space
}

// Observer receives every demand load with its serving level, during
// the measurement window only (the Fig. 3 characterization hook).
type Observer func(coreID int, pc uint64, blk mem.BlockAddr, served mem.ServedBy)

// System is one simulated machine instance running one or more
// workloads.
type System struct {
	cfg    Config
	llc    *cache.Cache
	sdcDir *coherence.SDCDir
	dram   *dram.Memory
	cores  []*coreCtx
	chk    *check.Checker // nil unless cfg.CheckLevel != check.Off

	// bw is the bound–weave engine while one is running this system
	// (Config.Quantum > 0); nil under the legacy serial engines. Shared-
	// domain paths consult it to defer their side effects to the weave.
	bw *bwEngine

	// llcpf is the shared cross-core LLC prefetcher (the "pickle"
	// preset), nil otherwise. It observes demand misses from every core
	// at the LLC. Both engines touch it only from serial code — the
	// legacy multi-core engine interleaves cores on one goroutine, and
	// the bound–weave engine trains/issues during the serial weave
	// replay — so one shared scratch buffer is safe.
	llcpf    prefetch.Prefetcher
	llcPfBuf []mem.BlockAddr

	// warming is true while the sampling engine is functionally warming
	// (never set for unsampled runs): dramWriteback then touches the row
	// instead of reserving bank and bus time.
	warming bool

	// Observer, when set, sees demand loads in the measure window.
	Observer Observer
}

// Checker returns the differential checker, or nil when checking is
// off.
func (s *System) Checker() *check.Checker { return s.chk }

type coreCtx struct {
	id  int
	sys *System
	w   Workload

	cpuCore *cpu.Core
	l1d     *cache.Cache
	victim  *cache.Cache
	l2      *cache.Cache
	sdc     *cache.Cache
	// levels lists the private caches above in walk order — L1D, victim
	// cache, L2, SDC, absent ones left out. The checkpoint payload, the
	// flight-recorder taps, the counter freeze and the invariant sweep
	// iterate it, so its order is part of the warm-state format.
	levels []level
	lp     *corepkg.LP
	alp    *corepkg.AdaptiveLP
	tlbs   *tlb.Hierarchy
	l1pf   prefetch.Prefetcher
	sdcpf  prefetch.Prefetcher
	l2pf   prefetch.Prefetcher
	imppf  prefetch.Prefetcher // indirect-memory prefetcher, nil unless preset enables it
	oracle cache.NextUseOracle
	irreg  []*mem.Region
	noSPP  bool

	pfBuf []mem.BlockAddr
	// sppBuf holds l2Access's SPP candidates across the recursive
	// prefetch walk (which reuses pfBuf), so the demand path allocates
	// nothing per record. l2Access never nests inside itself with
	// pf=false, so one buffer per core suffices.
	sppBuf []mem.BlockAddr

	// Window accounting.
	inMeasure    bool
	doneMeasure  bool
	baseCounters stats.CoreStats // snapshot at warm-up end

	// Epoch sampler state (armed by beginMeasure when the config's
	// EpochInterval is positive; nextEpoch is noEpoch otherwise, so
	// the hot loop pays a single comparison).
	nextEpoch int64
	epochBase stats.CoreStats   // snapshot at the current epoch start
	epochs    []obs.EpochSample // completed epoch deltas

	// Flight-recorder state (nil / disarmed unless cfg.FlightRecorder).
	// recorder owns the run's data; fr aliases it only while the
	// measurement window is open — beginMeasure attaches it (and the
	// cpu/cache/dram taps), the window-close snapshot detaches — so the
	// recorder's totals are exactly the measurement-window deltas.
	// nextFR is the next occupancy-sample boundary (noEpoch when
	// disarmed, folding into the observe fast path's one comparison).
	recorder   *obs.Recorder
	fr         *obs.Recorder
	nextFR     int64
	frInterval int64

	// Final measure-window stats (valid once doneMeasure).
	measured stats.CoreStats

	// Serving-level counters (running totals; snapshot like the rest).
	served [8]int64

	// Differential-checker state (nil / unused when checking is off;
	// every hook site is gated on chk != nil so the Off cost is one
	// pointer compare). curPC carries the access PC into the routing
	// paths, whose signatures the direct-call unit tests pin down;
	// verScratch carries the version a hierarchy serve delivered back
	// up from l2Access/llcAccess (0 = unknown, e.g. MSHR merges).
	chk        *check.Checker
	curPC      uint64
	verScratch uint64
	// nextSweep triggers the periodic invariant sweep (check.Full),
	// armed like nextEpoch so the hot loop pays one comparison.
	nextSweep int64
	// nextEvent is the earliest of every armed boundary above (sweep,
	// warm-up end, epoch, measure end); observe's fast path compares
	// the instruction count against it once per record. Zero initially
	// so the first record takes the slow path and arms it.
	nextEvent int64

	// bw is the core's bound–weave state while that engine runs (see
	// boundweave.go); nil under the legacy serial engines. Every
	// shared-domain routing path branches on it to buffer its effects
	// into the quantum event log instead of mutating shared state.
	bw *bwCore

	// Statistical-sampling state (warm.go / checkpoint.go). warmMode is
	// warmOff for unsampled runs, making observe's extra cost one byte
	// compare per record; under sampling it cycles functional-warm ↔ off
	// at sample boundaries, or starts in warmDrain when a warm-up
	// checkpoint was found. nextSampleStart/nextSampleEnd fold into the
	// nextEvent boundary minimum like every other window boundary.
	warmMode        uint8
	warmWalkFn      tlb.WarmWalkFunc
	frozen          frozenCounters // component counters held across a warming period
	nextSampleStart int64
	nextSampleMeas  int64
	nextSampleEnd   int64
	sampleK         int
	sampleBase      stats.CoreStats
	sampleDeltas    []stats.CoreStats
	// Checkpoint bookkeeping: drainTo is the instruction position the
	// restored warm-up ended at (drainCount tracks progress toward it);
	// ckptPayload holds the decoded state until the drain arrives;
	// ckptCommit publishes a freshly captured warm-up on a store miss.
	drainTo     int64
	drainCount  int64
	ckptPayload []byte
	ckptCommit  func([]byte) error
	ckptHit     bool
}

// level is one private cache with the name the invariant sweep reports
// it under and the serving level its MSHR telemetry is tagged with.
type level struct {
	cache *cache.Cache
	name  string
	src   mem.ServedBy
}

// warmMode values.
const (
	warmOff        = iota // detailed simulation (the only mode when sampling is off)
	warmFunctional        // functional warming: tags/recency/row state, no timing, counters frozen
	warmDrain             // checkpoint resume: count instructions only, touch nothing
)

// checkSweepEvery is the retired-instruction period of the structural
// invariant sweep in check.Full runs.
const checkSweepEvery = 4096

// oracleMux dispatches T-OPT rank queries to the owning core's
// workload oracle based on the address window.
type oracleMux struct {
	oracles []cache.NextUseOracle
}

// poptOracle coarsens ranks to 32 epochs, modelling P-OPT's quantized
// re-reference matrix.
type poptOracle struct {
	inner cache.NextUseOracle
}

// Rank implements cache.NextUseOracle.
func (p poptOracle) Rank(blk mem.BlockAddr) uint8 {
	r := p.inner.Rank(blk)
	if r == cache.RankMax {
		return r
	}
	return r &^ 7
}

// Rank implements cache.NextUseOracle.
func (m *oracleMux) Rank(blk mem.BlockAddr) uint8 {
	coreID := int(uint64(blk) >> (mem.CoreSpaceBits - mem.BlockBits))
	if coreID < len(m.oracles) && m.oracles[coreID] != nil {
		return m.oracles[coreID].Rank(blk)
	}
	return cache.RankDefault
}

// NewSystem builds a machine from cfg with one workload per core slot.
// Slots may hold a zero Workload (idle core).
func NewSystem(cfg Config, ws []Workload) *System {
	if len(ws) != cfg.Cores {
		panic("sim: workload count must equal core count")
	}
	if err := cfg.Validate(); err != nil {
		// Misconfigurations stop here, at machine build time, rather than
		// producing silently wrong numbers; tools call Validate first.
		panic(err.Error())
	}
	s := &System{cfg: cfg, dram: dram.NewMemory(cfg.DRAM, cfg.DRAMChannels)}
	if cfg.CheckLevel != check.Off {
		s.chk = check.New(cfg.CheckLevel)
	}

	llcCfg := cfg.llcConfig()
	if cfg.LLCRRIP {
		llcCfg.Policy = cache.SRRIP{}
	}
	mux := &oracleMux{oracles: make([]cache.NextUseOracle, cfg.Cores)}
	if cfg.LLCTOPT {
		var oracle cache.NextUseOracle = mux
		if cfg.LLCPOPT {
			// P-OPT: the re-reference matrix occupies one LLC way per
			// set and is itself epoch-quantized.
			llcCfg.SizeBytes = llcCfg.SizeBytes / llcCfg.Ways * (llcCfg.Ways - 1)
			llcCfg.Ways--
			oracle = poptOracle{inner: mux}
		}
		llcCfg.Policy = &cache.TOPT{Oracle: oracle}
	}
	s.llc = cache.New(llcCfg)

	if cfg.Routing == RouteLP || cfg.Routing == RouteExpert {
		s.sdcDir = coherence.New(cfg.sdcDirConfig(), s.onSDCDirEvict)
	}

	for i := 0; i < cfg.Cores; i++ {
		c := &coreCtx{id: i, sys: s, w: ws[i], nextEpoch: noEpoch, chk: s.chk, nextSweep: noEpoch, nextFR: noEpoch,
			nextSampleStart: noEpoch, nextSampleMeas: noEpoch, nextSampleEnd: noEpoch}
		if cfg.CheckLevel == check.Full {
			c.nextSweep = checkSweepEvery
		}
		if cfg.FlightRecorder {
			c.frInterval = cfg.frInterval()
			c.recorder = obs.NewRecorder(c.frInterval)
		}
		l1Cfg := cfg.L1D
		c.l1d = cache.New(l1Cfg)
		if cfg.VictimEntries > 0 {
			c.victim = cache.New(cache.Config{
				Name:      "VC",
				SizeBytes: cfg.VictimEntries * mem.BlockSize,
				Ways:      cfg.VictimEntries, // fully associative
				Latency:   1,
			})
		}
		l2Cfg := cfg.L2
		if cfg.L2Distill {
			l2Cfg.Distill = true
			l2Cfg.DistillWOCWays = cfg.L2DistillWays
		}
		c.l2 = cache.New(l2Cfg)
		if cfg.Routing == RouteLP || cfg.Routing == RouteExpert {
			c.sdc = cache.New(cfg.SDC)
			c.sdcpf = prefetch.NextLine{}
		}
		c.levels = []level{{c.l1d, "L1D", mem.ServedL1D}}
		if c.victim != nil {
			// No MSHRs, so never tapped or occupancy-sampled.
			c.levels = append(c.levels, level{c.victim, "VC", mem.ServedNone})
		}
		c.levels = append(c.levels, level{c.l2, "L2", mem.ServedL2})
		if c.sdc != nil {
			c.levels = append(c.levels, level{c.sdc, "SDC", mem.ServedSDC})
		}
		if cfg.Routing == RouteLP || cfg.Routing == RouteBypass {
			if cfg.LPAdaptive {
				c.alp = corepkg.NewAdaptiveLP(cfg.LP)
				c.lp = c.alp.LP
			} else {
				c.lp = corepkg.NewLP(cfg.LP)
			}
		}
		// Prefetcher wiring: the default is Table I's (next-line at the
		// L1D/SDC, SPP at the L2); cfg.Prefetchers swaps in one of the
		// competitive baseline presets (names checked by Validate).
		c.l1pf = prefetch.NextLine{}
		c.l2pf = prefetch.NewSPP()
		switch cfg.Prefetchers {
		case "", "spp":
			// Default Table I wiring.
		case "none":
			c.l1pf = prefetch.None{}
			c.sdcpf = prefetch.None{}
			c.noSPP = true
		case "nextline":
			c.noSPP = true
		case "stride":
			c.l2pf = prefetch.NewStride()
		case "imp":
			c.noSPP = true
			c.imppf = prefetch.NewIMP()
		case "pickle":
			c.noSPP = true
			if s.llcpf == nil {
				s.llcpf = prefetch.NewPickle()
			}
		case "spp+imp":
			c.imppf = prefetch.NewIMP()
		}
		ptBase := mem.Addr(uint64(i)<<mem.CoreSpaceBits) + ptOffset
		cc := c
		c.tlbs = tlb.DefaultHierarchy(ptBase, func(addr mem.Addr, now int64) int64 {
			return cc.walkRead(addr, now)
		})
		if cfg.Sampling.Enabled() {
			// Warm page walks touch the leaf PTE block through the warm L2
			// path, as walkRead does through l2Access; the closure is built
			// once so the warm loop allocates nothing per record.
			c.warmWalkFn = func(addr mem.Addr) {
				cc.warmL2(addr.Block(), addr, 8)
			}
		}
		cpuCfg := cfg.CPU
		if cfg.BranchMissPenalty > 0 {
			cpuCfg.BranchMissPenalty = cfg.BranchMissPenalty
		}
		c.cpuCore = cpu.New(cpuCfg, func(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
			return cc.access(pc, addr, size, write, issue, hint)
		})
		if ws[i].Inst != nil {
			c.irreg = ws[i].Inst.IrregularRegions()
			if cfg.LLCTOPT {
				c.oracle = ws[i].Inst.Oracle()
				mux.oracles[i] = c.oracle
			}
		}
		if cfg.Sampling.Enabled() {
			// The warm-up itself runs under functional warming; detailed
			// simulation only happens inside samples.
			c.enterWarm()
		}
		s.cores = append(s.cores, c)
	}
	return s
}

// onSDCDirEvict implements the SDCDir replacement semantics of Section
// III-C: every SDC holding the block gives it up, the write-back charged
// to the DRAM state at the current approximate time (the owner's clock).
func (s *System) onSDCDirEvict(blk mem.BlockAddr, sharers uint64) {
	if s.bw != nil {
		// Replay-time capacity eviction: the bound phase that logged
		// this quantum saw the SDC copies as live, so the invalidations
		// are deferred to the weave's end (boundweave.go).
		s.bw.deferEvict(blk, sharers)
		return
	}
	s.surrenderSDCs(blk, sharers, wbOwnerClock)
}

// --- walk protocols: the one definition of each sequence the routing
// paths below (and warm.go, boundweave.go) would otherwise spell out per
// site. The MSHR protocol is cache.MissBegin/MissEnd/PrefetchBegin; the
// warm-state component list is warmComponents (checkpoint.go). See
// DESIGN.md, "Hierarchy walk". ---

// Write-back times surrenderSDCs takes besides a concrete cycle.
const (
	wbMoves      int64 = -1 // dirty data moves with the block: no DRAM write
	wbOwnerClock int64 = -2 // each surrendering core's own clock (the directory initiated it)
)

// surrenderSDCs is the one statement of "the SDC domain gives blk up"
// (Section III-C): every SDC named in sharers invalidates its copy and a
// dirty one is written back to DRAM at wb, unless the data moves. It
// returns the first known version among the copies and whether any was
// dirty; what becomes of the directory entry (dropped, re-owned, already
// evicted) is the caller's line. The bound phase may call it for its own
// SDC with wbMoves only — anything else mutates shared state.
func (s *System) surrenderSDCs(blk mem.BlockAddr, sharers uint64, wb int64) (ver uint64, anyDirty bool) {
	for i, c := range s.cores {
		if sharers&(1<<i) == 0 || c.sdc == nil {
			continue
		}
		if s.chk != nil && ver == 0 {
			ver = c.sdc.VerOf(blk)
		}
		if _, dirty := c.sdc.Invalidate(blk); dirty {
			anyDirty = true
			switch wb {
			case wbMoves:
			case wbOwnerClock:
				s.dramWriteback(blk, c.cpuCore.Cycle(), ver)
			default:
				s.dramWriteback(blk, wb, ver)
			}
		}
	}
	return ver, anyDirty
}

// sdcSharers asks the SDCDir which SDCs hold blk — a stats- and
// recency-bearing lookup; 0 when none does or the machine has no SDCs.
func (s *System) sdcSharers(blk mem.BlockAddr) uint64 {
	if s.sdcDir == nil {
		return 0
	}
	sharers, _, _ := s.sdcDir.Lookup(blk)
	return sharers
}

// holdsPrivate reports whether the core's private stack (L1D, victim
// cache, L2) holds blk. A pure probe, like privateVer.
func (c *coreCtx) holdsPrivate(blk mem.BlockAddr) bool {
	return c.l1d.Probe(blk) || (c.victim != nil && c.victim.Probe(blk)) || c.l2.Probe(blk)
}

// privateVer is the version of the stack's topmost known copy of blk.
func (c *coreCtx) privateVer(blk mem.BlockAddr) uint64 {
	if v := c.l1d.VerOf(blk); v != 0 {
		return v
	}
	if c.victim != nil {
		if v := c.victim.VerOf(blk); v != 0 {
			return v
		}
	}
	return c.l2.VerOf(blk)
}

// purgePrivate drops every private-stack copy of blk (an SDC write took
// ownership; the data moves, so nothing is written back).
func (c *coreCtx) purgePrivate(blk mem.BlockAddr) {
	c.l1d.Invalidate(blk)
	if c.victim != nil {
		c.victim.Invalidate(blk)
	}
	c.l2.Invalidate(blk)
}

// privateHolder is the idealized full-map directory's answer to "whose
// private stack holds blk": the first core other than except (nil: any
// core) that does, or nil.
func (s *System) privateHolder(blk mem.BlockAddr, except *coreCtx) *coreCtx {
	for _, c := range s.cores {
		if c != except && c.holdsPrivate(blk) {
			return c
		}
	}
	return nil
}

// anyCacheHolds reports whether the LLC or any core's private hierarchy
// holds blk.
func (s *System) anyCacheHolds(blk mem.BlockAddr) bool {
	return s.llc.Probe(blk) || s.privateHolder(blk, nil) != nil
}

// stamp is the checked half of every install: the copy of blk just
// filled into ch carries version ver. Install is Fill, stamp, and the
// dirty victim handed one level down (fillL1, fillL2, fillSDC,
// writebackToL2, llcInstall); Fill stays at the site because one
// function holding both calls cannot inline, and that extra call per
// fill per level measured 3-4 % on BenchmarkPRKronStep.
func (s *System) stamp(ch *cache.Cache, blk mem.BlockAddr, ver uint64) {
	if s.chk != nil {
		ch.SetVer(blk, ver)
	}
}

// checkerFor returns the oracle that tracks blk: the owning core's shard
// under bound–weave (each core is the single writer of its window), the
// one system-wide checker otherwise; nil when nothing tracks it.
func (s *System) checkerFor(blk mem.BlockAddr) *check.Checker {
	if s.bw == nil {
		return s.chk
	}
	if o := blockOwner(blk); o < len(s.cores) {
		return s.cores[o].chk
	}
	return nil
}

// dramWriteback posts a dirty block's write-back to DRAM at time t and
// records version ver as the architectural DRAM content. Writes are off
// the critical path, so only the bank/bus reservation matters — and while
// functionally warming not even that: the row is touched, timelessly.
// Every dirty-victim and back-invalidation write-back of the serial
// engines, the warm walk and the weave replay comes through here (a
// bound-phase core logs its own as bwEvDRAMWrite instead).
func (s *System) dramWriteback(blk mem.BlockAddr, t int64, ver uint64) {
	if s.warming {
		s.dram.WarmTouch(blk)
		return
	}
	s.dram.Access(blk, true, t)
	if k := s.checkerFor(blk); k != nil {
		k.DRAMWrite(blk, ver)
	}
}

// isIrregular applies the Expert Programmer classification.
func (c *coreCtx) isIrregular(addr mem.Addr) bool {
	for _, r := range c.irreg {
		if r.Contains(addr) {
			return true
		}
	}
	return false
}

// access is the core-side entry point for every demand memory access.
func (c *coreCtx) access(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
	blk := addr.Block()
	// Stash the PC for oracle provenance and for PC-keyed prefetchers;
	// the routing paths keep their test-pinned signatures.
	c.curPC = pc

	// The indirect-memory prefetcher observes every demand load —
	// including L1 hits, since the index stream it trains on is usually
	// cache-resident — and issues its gather prefetches at the index
	// load's issue point, through the L1 prefetch path. Issuing here
	// (rather than after the dependent gather misses) is what hides the
	// dependent-load serialization IMP targets.
	if c.imppf != nil && !write {
		c.pfBuf = c.imppf.OnAccess(mem.AccessInfo{PC: pc, Addr: addr, Blk: blk, Core: c.id, ValueHint: hint}, c.pfBuf[:0])
		for _, cand := range c.pfBuf {
			c.l1Prefetch(cand, issue)
		}
	}

	// Address translation proceeds in parallel with the (VIPT) L1D/SDC
	// lookup; only its excess latency delays the response.
	transReady := c.tlbs.Translate(addr.Page(), issue)

	averse := false
	switch c.sys.cfg.Routing {
	case RouteLP, RouteBypass:
		averse = c.lp.PredictAndUpdate(pc, blk)
	case RouteExpert:
		averse = c.isIrregular(addr)
	}
	if c.fr != nil && c.sys.cfg.Routing != RouteNone {
		c.fr.LPDecision(averse)
	}

	var resp mem.Response
	switch {
	case averse && c.sys.cfg.Routing == RouteBypass:
		resp = c.bypassAccess(blk, addr, size, write, issue)
	case averse:
		resp = c.sdcAccess(blk, addr, size, write, issue)
	default:
		resp = c.l1Access(blk, addr, size, write, issue)
	}
	if transReady > resp.Ready {
		resp.Ready = transReady
	}

	if !write {
		c.served[resp.Source]++
		if c.fr != nil {
			c.fr.Load(resp.Source, resp.Ready-issue)
		}
		if c.alp != nil {
			c.alp.Feedback(averse, resp.Source)
		}
		if c.inMeasure && c.sys.Observer != nil {
			c.sys.Observer(c.id, pc, blk, resp.Source)
		}
	}
	return resp
}

// walkRead serves a page-walker leaf-PTE read: it enters the hierarchy
// at the L2, as hardware walkers do.
func (c *coreCtx) walkRead(addr mem.Addr, now int64) int64 {
	resp := c.l2Access(addr.Block(), addr, 8, false, false, now)
	return resp.Ready
}

// bypassAccess is the Selective-Cache-style ablation path: a
// cache-averse access checks the L1D (it is adjacent and VIPT), then
// goes straight to DRAM without allocating anywhere — L2/LLC bypass
// with no SDC. Cached copies in the local hierarchy still serve the
// access for correctness.
func (c *coreCtx) bypassAccess(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, issue int64) mem.Response {
	s := c.sys
	res := c.l1d.Lookup(blk, addr, size, write, false, issue)
	if res.Hit {
		c.checkCacheHit(c.l1d, blk, mem.ServedL1D, write)
		return mem.Response{Ready: res.ReadyAt, Source: mem.ServedL1D}
	}
	t := res.ReadyAt
	if present, _ := c.l2.ProbeDirty(blk); present {
		r := c.l2.Lookup(blk, addr, size, write, false, t)
		c.checkCacheHit(c.l2, blk, mem.ServedL2, write)
		return mem.Response{Ready: r.ReadyAt, Source: mem.ServedL2}
	}
	if c.bw != nil {
		return c.bwBypassShared(blk, addr, size, write, t)
	}
	if present, _ := s.llc.ProbeDirty(blk); present {
		r := s.llc.Lookup(blk, addr, size, write, false, t+c.l2.Latency())
		c.checkCacheHit(s.llc, blk, mem.ServedLLC, write)
		return mem.Response{Ready: r.ReadyAt, Source: mem.ServedLLC}
	}
	done := s.dram.Access(blk, write, t)
	if write {
		done = t + 1 // write-through to DRAM, off the critical path
	}
	if c.chk != nil {
		if write {
			c.chk.DRAMWrite(blk, c.chk.StoreAbsorbed(blk))
		} else {
			c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedDRAM, c.chk.DRAMRead(blk))
		}
	}
	return mem.Response{Ready: done, Source: mem.ServedDRAM}
}

// checkCacheHit applies the oracle to a demand hit in a cache: a load
// must have been served at the architectural version, a store dirties
// the line and bumps the version in place.
func (c *coreCtx) checkCacheHit(ch *cache.Cache, blk mem.BlockAddr, src mem.ServedBy, write bool) {
	if c.chk == nil {
		return
	}
	if write {
		ch.SetVer(blk, c.chk.StoreAbsorbed(blk))
		return
	}
	c.chk.CheckLoad(c.id, c.curPC, blk, src, ch.VerOf(blk))
}

// --- SDC path (Section III-D) ---

func (c *coreCtx) sdcAccess(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, issue int64) mem.Response {
	s := c.sys
	res := c.sdc.Lookup(blk, addr, size, write, false, issue)
	if res.Hit {
		if write {
			if c.bw != nil {
				// Disjoint per-core windows: no other SDC can share the
				// line, so the upgrade is just the directory round.
				c.bwDirLookup(blk, res.ReadyAt)
				c.bwDirAddSharer(blk, res.ReadyAt, true)
			} else {
				// A write upgrade: any other SDC sharing the line gives
				// its copy up before we own it Modified.
				s.surrenderSDCs(blk, s.sdcSharers(blk)&^(1<<c.id), wbMoves)
				s.sdcDir.AddSharer(blk, c.id, true)
			}
		}
		c.checkCacheHit(c.sdc, blk, mem.ServedSDC, write)
		return mem.Response{Ready: res.ReadyAt, Source: mem.ServedSDC}
	}

	t, merged := c.sdc.MissBegin(blk, res.ReadyAt)
	if merged {
		if c.chk != nil && !write {
			// Merged into an in-flight fill: served version unknown.
			c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedSDC, 0)
		}
		return mem.Response{Ready: t, Source: mem.ServedSDC}
	}

	// Coherence: the SDCDir and the cache directory are checked while
	// the DRAM access is launched speculatively (the "fast path to
	// DRAM" of Section III-A); whichever source holds the valid copy
	// serves. The local L1D/L2 are probed en route (they sit between
	// the SDC and the directory), so locally-resident blocks serve at
	// their own latency rather than a full directory round.
	dirDone := t + s.cfg.DirLatency

	// (a) Our own or a remote SDC holds it. Under the bound–weave
	// engine our own SDC just missed and no remote SDC can hold our
	// blocks (disjoint windows), so only the directory round's
	// stats/LRU are logged; the branch itself is dead.
	if c.bw != nil {
		c.bwDirLookup(blk, t)
	} else if sharers := s.sdcSharers(blk); sharers != 0 {
		ready := c.serveFromSDCs(blk, addr, size, write, sharers, dirDone)
		c.sdc.MissEnd(blk, ready)
		src := mem.ServedRemote
		if sharers == 1<<c.id {
			src = mem.ServedSDC
		}
		return mem.Response{Ready: ready, Source: src}
	}

	// (b) A private cache or the LLC holds it.
	if ready, found, src := c.serveFromHierarchy(blk, addr, size, write, dirDone); found {
		c.sdc.MissEnd(blk, ready)
		return mem.Response{Ready: ready, Source: src}
	}

	// (c) DRAM, bypassing L2 and LLC. The row access was launched in
	// parallel with the directory check.
	var dramDone int64
	if c.bw != nil {
		dramDone = c.bwDRAMRead(blk, t, false)
	} else {
		dramDone = s.dram.Access(blk, false, t)
	}
	ready := max(dramDone, dirDone)
	var ver uint64
	if c.chk != nil {
		ver = c.chk.DRAMRead(blk)
		if write {
			ver = c.chk.StoreAbsorbed(blk)
		} else {
			c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedDRAM, ver)
		}
	}
	c.fillSDC(blk, addr, size, write, ready, ver)
	c.sdc.MissEnd(blk, ready)

	// Next-line prefetch into the SDC (Table I), only for blocks nobody
	// else holds, to keep coherence simple. Prefetches launch at the
	// demand's issue point, not its completion, so they never reserve
	// bank/bus time in the future of younger demand requests.
	c.pfBuf = c.sdcpf.OnAccess(mem.AccessInfo{PC: c.curPC, Addr: addr, Blk: blk, Core: c.id}, c.pfBuf[:0])
	for _, cand := range c.pfBuf {
		c.sdcPrefetch(cand, t)
	}

	return mem.Response{Ready: ready, Source: mem.ServedDRAM}
}

// serveFromSDCs handles an SDC miss that hits in the SDCDir: the block
// lives in one or more SDCs (possibly our own — e.g. a WOC-less alias —
// but normally a remote core's).
func (c *coreCtx) serveFromSDCs(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, sharers uint64, t int64) int64 {
	s := c.sys
	ready := t
	if write {
		// Every copy dies and dirty data goes back to DRAM; then we own
		// the line Modified.
		s.surrenderSDCs(blk, sharers, t)
		s.sdcDir.InvalidateAll(blk)
		var fillVer uint64
		if c.chk != nil {
			fillVer = c.chk.StoreAbsorbed(blk)
		}
		c.fillSDC(blk, addr, size, true, ready, fillVer)
		return ready
	}
	// Read: a cache-to-cache transfer; join the sharers.
	remote := sharers&^(1<<c.id) != 0
	if remote {
		ready += s.cfg.DirLatency / 2 // transfer hop
	}
	var ver uint64
	if c.chk != nil {
		for i := range s.cores {
			if sharers&(1<<i) == 0 || s.cores[i].sdc == nil {
				continue
			}
			if v := s.cores[i].sdc.VerOf(blk); v != 0 {
				ver = v
				break
			}
		}
		src := mem.ServedSDC
		if remote {
			src = mem.ServedRemote
		}
		c.chk.CheckLoad(c.id, c.curPC, blk, src, ver)
	}
	c.fillSDC(blk, addr, size, false, ready, ver)
	return ready
}

// serveFromHierarchy probes the caller's and remote cores' private
// caches plus the shared LLC (the idealized full-map directory) for an
// SDC miss. A read is served in place — the copy stays where it is and
// the SDC is NOT filled, so the hierarchy remains the sole owner and no
// copy can go stale behind the SDC's back. A write takes exclusive
// ownership with move semantics: every hierarchy copy is purged and the
// dirty data transfers into the SDC fill (no DRAM write-back needed —
// the SDC copy becomes the owner).
func (c *coreCtx) serveFromHierarchy(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, t int64) (ready int64, found bool, src mem.ServedBy) {
	s := c.sys
	// Locate the closest (topmost) copy for latency, provenance and
	// the served version: the requester's own private stack is probed
	// top-down on the way to the directory and serves at its own
	// latency (negative lat relative to the directory round).
	var lat int64
	src = mem.ServedNone
	if c.l1d.Probe(blk) {
		lat, src = c.l1d.Latency()-s.cfg.DirLatency, mem.ServedL1D
	} else if c.victim != nil && c.victim.Probe(blk) {
		lat, src = c.victim.Latency()+c.l1d.Latency()-s.cfg.DirLatency, mem.ServedL1D
	} else if c.l2.Probe(blk) {
		lat, src = c.l2.Latency()-s.cfg.DirLatency, mem.ServedL2
	} else if c.llcHolds(blk) {
		lat, src = 0, mem.ServedLLC
	} else if c.bw == nil && s.privateHolder(blk, c) != nil {
		// (Remote privates can never hold this core's blocks under the
		// bound–weave engine: disjoint windows.)
		lat, src = s.cfg.DirLatency/2, mem.ServedRemote
	}
	if src == mem.ServedNone {
		return 0, false, mem.ServedNone
	}
	ready = t + lat

	// The topmost copy in the owning stack carries the newest version.
	var ver uint64
	if c.chk != nil {
		ver = c.hierarchyVer(blk)
	}

	if !write {
		if c.chk != nil {
			c.chk.CheckLoad(c.id, c.curPC, blk, src, ver)
		}
		return ready, true, src
	}

	// Write: purge every copy. Dirty data is not written back — it
	// transfers into the (dirty) SDC fill, which supersedes it.
	if c.bw != nil {
		// The LLC purge replays in the weave; only our own private
		// copies exist otherwise.
		c.bwLLCInvalidate(blk, ready)
		c.purgePrivate(blk)
	} else {
		s.llc.Invalidate(blk)
		for _, rc := range s.cores {
			rc.purgePrivate(blk)
		}
	}

	if c.chk != nil {
		ver = c.chk.StoreAbsorbed(blk)
	}
	c.fillSDC(blk, addr, size, true, ready, ver)
	return ready, true, src
}

// hierarchyVer returns the version of the topmost hierarchy copy of
// blk (own stack top-down, then the LLC, then the remote stack holding
// it), 0 if unknown everywhere.
func (c *coreCtx) hierarchyVer(blk mem.BlockAddr) uint64 {
	if v := c.privateVer(blk); v != 0 {
		return v
	}
	if v := c.llcVer(blk); v != 0 {
		return v
	}
	if c.bw == nil { // remote privates never hold a bound-phase core's blocks
		if rc := c.sys.privateHolder(blk, c); rc != nil {
			return rc.privateVer(blk)
		}
	}
	return 0
}

// fillSDC inserts a block into the SDC, handling victim write-back and
// SDCDir bookkeeping. dirty marks the filled copy modified (a store,
// or a dirty transfer from the hierarchy), which also makes the SDCDir
// entry Modified with this core as sole owner. ver is the
// architectural version stamp (0 when checking is off or unknown).
func (c *coreCtx) fillSDC(blk mem.BlockAddr, addr mem.Addr, size uint8, dirty bool, ready int64, ver uint64) {
	s := c.sys
	v := c.sdc.Fill(blk, addr, size, dirty, false, ready)
	s.stamp(c.sdc, blk, ver)
	if c.bw != nil {
		if v.Valid {
			c.bwDirRemoveSharer(v.Blk, ready)
			if v.Dirty {
				c.bwDRAMWrite(v.Blk, ready, v.Ver)
			}
		}
		c.bwDirAddSharer(blk, ready, dirty)
		return
	}
	if v.Valid {
		s.sdcDir.RemoveSharer(v.Blk, c.id)
		if v.Dirty {
			s.dramWriteback(v.Blk, ready, v.Ver)
		}
	}
	s.sdcDir.AddSharer(blk, c.id, dirty)
}

// sdcPrefetch fetches a next-line candidate into the SDC from DRAM.
func (c *coreCtx) sdcPrefetch(blk mem.BlockAddr, now int64) {
	s := c.sys
	if c.sdc.Probe(blk) || !c.sdc.PrefetchBegin(blk, now) {
		return
	}
	// Releases the register on the early returns — and, today's bytes,
	// also runs after the MissEnd at the fill below, overwriting the DRAM
	// fill time with the issue time (ROADMAP item 1: the fix goes here).
	defer c.sdc.MissEnd(blk, now)
	// Skip candidates other agents hold; a real design would take the
	// coherent path, but dropping the prefetch is always safe.
	if c.bw != nil {
		// Our SDC (the only possible sharer of our blocks) missed the
		// probe above, so the directory round is stats/LRU only; remote
		// privates can never hold our blocks.
		c.bwDirLookup(blk, now)
		if c.llcHolds(blk) || c.holdsPrivate(blk) {
			return
		}
	} else if s.sdcSharers(blk) != 0 || s.anyCacheHolds(blk) {
		return
	}
	var done int64
	if c.bw != nil {
		done = c.bwDRAMRead(blk, now, true)
	} else {
		done = s.dram.Access(blk, false, now)
	}
	var ver uint64
	if c.chk != nil {
		ver = c.chk.DRAMRead(blk)
	}
	c.fillSDC(blk, blk.Addr(), mem.BlockSize, false, done, ver)
	c.sdc.MarkPrefetchFill()
	c.sdc.MissEnd(blk, done)
}

// --- conventional hierarchy path ---

func (c *coreCtx) l1Access(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, issue int64) mem.Response {
	s := c.sys
	res := c.l1d.Lookup(blk, addr, size, write, false, issue)
	if res.Hit {
		c.checkCacheHit(c.l1d, blk, mem.ServedL1D, write)
		return mem.Response{Ready: res.ReadyAt, Source: mem.ServedL1D}
	}
	t := res.ReadyAt

	// Victim cache: L1D conflict victims are one cycle away and swap
	// back in on a hit (Jouppi).
	if c.victim != nil {
		if vres := c.victim.Lookup(blk, addr, size, write, false, t); vres.Hit {
			var ver uint64
			if c.chk != nil {
				ver = c.victim.VerOf(blk)
				if write {
					ver = c.chk.StoreAbsorbed(blk)
				} else {
					c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedL1D, ver)
				}
			}
			_, dirty := c.victim.Invalidate(blk)
			c.fillL1(blk, addr, size, write || dirty, vres.ReadyAt, ver)
			return mem.Response{Ready: vres.ReadyAt, Source: mem.ServedL1D}
		}
	}

	// The SDC may hold the block (friendly access to data previously
	// classified averse): the SDCDir transfers it over. The whole SDC
	// domain gives the block up — every sharer's copy is invalidated
	// and the directory entry dropped — so no SDC copy can linger
	// untracked and go stale once the hierarchy owns the line.
	if s.sdcDir != nil {
		var sharers uint64
		if c.bw != nil {
			// Bound phase: the directory question for our own block is
			// answered by our own SDC (the only possible sharer); the
			// stats/LRU-bearing lookup replays in the weave.
			c.bwDirLookup(blk, t)
			if c.sdc != nil && c.sdc.Probe(blk) {
				sharers = 1 << c.id
			}
		} else {
			sharers = s.sdcSharers(blk)
		}
		if sharers&(1<<c.id) != 0 {
			ready := t + s.sdcDir.Latency() + c.sdc.Latency()
			var ver uint64
			if c.chk != nil {
				ver = c.sdc.VerOf(blk)
			}
			if s.cfg.BreakSDCDirInval {
				// Fault injection (tests only): "forget" to invalidate
				// our own SDC copy while the directory entry is still
				// dropped below — the classic untracked-stale-copy bug
				// the oracle must catch.
				sharers &^= 1 << c.id
			}
			_, anyDirty := s.surrenderSDCs(blk, sharers, wbMoves)
			if c.bw != nil {
				c.bwDirInvalidateAll(blk, t)
			} else {
				s.sdcDir.InvalidateAll(blk)
			}
			if c.chk != nil {
				if write {
					ver = c.chk.StoreAbsorbed(blk)
				} else {
					c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedSDC, ver)
				}
			}
			c.fillL1(blk, addr, size, write || anyDirty, ready, ver)
			return mem.Response{Ready: ready, Source: mem.ServedSDC}
		}
	}

	t, merged := c.l1d.MissBegin(blk, t)
	if merged {
		if c.chk != nil && !write {
			// Merged into an in-flight fill: served version unknown.
			c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedL2, 0)
		}
		return mem.Response{Ready: t, Source: mem.ServedL2}
	}

	resp := c.l2Access(blk, addr, size, write, false, t)
	var ver uint64
	if c.chk != nil {
		ver = c.verScratch
		if write {
			ver = c.chk.StoreAbsorbed(blk)
		} else {
			c.chk.CheckLoad(c.id, c.curPC, blk, resp.Source, c.verScratch)
		}
	}
	c.fillL1(blk, addr, size, write, resp.Ready, ver)
	c.l1d.MissEnd(blk, resp.Ready)

	// Next-line prefetcher (Table I: attached to the L1D), degree 1,
	// triggered on demand misses; the prefetch walks the hierarchy
	// without stalling the core.
	c.pfBuf = c.l1pf.OnAccess(mem.AccessInfo{PC: c.curPC, Addr: addr, Blk: blk, Core: c.id}, c.pfBuf[:0])
	for _, cand := range c.pfBuf {
		c.l1Prefetch(cand, t)
	}
	return resp
}

// fillL1 inserts into the L1D, cascading the victim into the victim
// cache (when configured) and dirty data down the hierarchy. ver is the
// version stamp of the filled copy (0 when checking is off).
func (c *coreCtx) fillL1(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, ready int64, ver uint64) {
	v := c.l1d.Fill(blk, addr, size, write, false, ready)
	c.sys.stamp(c.l1d, blk, ver)
	if v.Valid && c.victim != nil {
		vblk, vver := v.Blk, v.Ver
		v = c.victim.Fill(vblk, vblk.Addr(), mem.BlockSize, v.Dirty, false, ready)
		c.sys.stamp(c.victim, vblk, vver)
	}
	if v.Valid && v.Dirty {
		c.writebackToL2(v.Blk, ready, v.Ver)
	}
}

// writebackToL2 installs a dirty L1 victim in the L2 (allocate-on-
// write-back), cascading further victims. ver travels with the data.
func (c *coreCtx) writebackToL2(blk mem.BlockAddr, now int64, ver uint64) {
	c.l2.Stats.Writebacks++
	v := c.l2.Fill(blk, blk.Addr(), mem.BlockSize, true, false, now)
	c.sys.stamp(c.l2, blk, ver)
	if v.Valid && v.Dirty {
		c.writebackToLLC(v.Blk, now, v.Ver)
	}
}

func (c *coreCtx) writebackToLLC(blk mem.BlockAddr, now int64, ver uint64) {
	if c.bw != nil {
		c.bw.logEv(bwEvent{kind: bwEvLLCWB, t: now, blk: blk, ver: ver})
		c.bwOverlaySet(blk, true, ver)
		return
	}
	c.sys.llcWriteback(blk, now, ver)
}

// llcWriteback installs a dirty L2 victim in the LLC (allocate-on-
// write-back). The serial engines call it as the write-back happens, the
// weave when it replays the logged bwEvLLCWB.
func (s *System) llcWriteback(blk mem.BlockAddr, now int64, ver uint64) {
	s.llc.Stats.Writebacks++
	s.llcInstall(blk, blk.Addr(), mem.BlockSize, true, false, now, ver)
}

// llcInstall fills the LLC, sending its own dirty victim on to DRAM.
func (s *System) llcInstall(blk mem.BlockAddr, addr mem.Addr, size uint8, dirty, pf bool, ready int64, ver uint64) {
	v := s.llc.Fill(blk, addr, size, dirty, pf, ready)
	s.stamp(s.llc, blk, ver)
	if v.Valid && v.Dirty {
		s.dramWriteback(v.Blk, ready, v.Ver)
	}
}

// fillL2 installs a block arriving from the LLC side in the L2 at the
// version llcAccess delivered (verScratch), sending the L2's dirty
// victim on to the LLC.
func (c *coreCtx) fillL2(blk mem.BlockAddr, addr mem.Addr, size uint8, pf bool, ready int64) {
	v := c.l2.Fill(blk, addr, size, false, pf, ready)
	c.sys.stamp(c.l2, blk, c.verScratch)
	if v.Valid && v.Dirty {
		c.writebackToLLC(v.Blk, ready, v.Ver)
	}
}

func (c *coreCtx) l2Access(blk mem.BlockAddr, addr mem.Addr, size uint8, write, pf bool, issue int64) mem.Response {
	res := c.l2.Lookup(blk, addr, size, false, pf, issue)

	// SPP trains on every L2 demand access and issues lookahead
	// prefetches into the L2 (prefetch traffic does not re-train it).
	cands := c.sppBuf[:0]
	if !pf && !c.noSPP {
		c.pfBuf = c.l2pf.OnAccess(mem.AccessInfo{PC: c.curPC, Addr: addr, Blk: blk, Hit: res.Hit, Core: c.id}, c.pfBuf[:0])
		cands = append(cands, c.pfBuf...)
	}
	c.sppBuf = cands

	var resp mem.Response
	if res.Hit {
		if c.chk != nil {
			c.verScratch = c.l2.VerOf(blk)
		}
		resp = mem.Response{Ready: res.ReadyAt, Source: mem.ServedL2}
	} else {
		t, merged := c.l2.MissBegin(blk, res.ReadyAt)
		if merged {
			c.verScratch = 0 // delivered version unknown
			return mem.Response{Ready: t, Source: mem.ServedLLC}
		}
		resp = c.llcAccess(blk, addr, size, write, pf, t)
		c.fillL2(blk, addr, size, false, resp.Ready)
		c.l2.MissEnd(blk, resp.Ready)
	}

	// Prefetches launch at the demand's L2-lookup point, never at its
	// completion time (see sdcAccess for why). They recurse into
	// llcAccess and clobber verScratch with their own blocks' versions,
	// so the demand's delivered version is restored for the caller.
	dv := c.verScratch
	for _, cand := range cands {
		c.l2Prefetch(cand, res.ReadyAt)
	}
	c.verScratch = dv
	return resp
}

// l2Prefetch fetches an SPP candidate into the L2 via the LLC path.
func (c *coreCtx) l2Prefetch(blk mem.BlockAddr, now int64) {
	if c.l2.Probe(blk) || !c.l2.PrefetchBegin(blk, now) {
		return
	}
	resp := c.llcAccess(blk, blk.Addr(), mem.BlockSize, false, true, now)
	c.fillL2(blk, blk.Addr(), mem.BlockSize, true, resp.Ready)
	c.l2.MarkPrefetchFill()
	c.l2.MissEnd(blk, resp.Ready)
}

// l1Prefetch fetches a next-line candidate into the L1D via L2.
func (c *coreCtx) l1Prefetch(blk mem.BlockAddr, now int64) {
	// Skip when the L1D or the victim cache already holds the block: a
	// prefetch fill above a newer (possibly dirty) victim-cache copy
	// would resurrect a stale version ahead of it in lookup order.
	if c.l1d.Probe(blk) || (c.victim != nil && c.victim.Probe(blk)) || !c.l1d.PrefetchBegin(blk, now) {
		return
	}
	resp := c.l2Access(blk, blk.Addr(), mem.BlockSize, false, true, now)
	// A prefetch's victim skips the victim cache: dirty data goes down.
	v := c.l1d.Fill(blk, blk.Addr(), mem.BlockSize, false, true, resp.Ready)
	c.sys.stamp(c.l1d, blk, c.verScratch)
	if v.Valid && v.Dirty {
		c.writebackToL2(v.Blk, resp.Ready, v.Ver)
	}
	c.l1d.MarkPrefetchFill()
	c.l1d.MissEnd(blk, resp.Ready)
}

func (c *coreCtx) llcAccess(blk mem.BlockAddr, addr mem.Addr, size uint8, write, pf bool, issue int64) mem.Response {
	if c.bw != nil {
		return c.bwLLCAccess(blk, addr, size, pf, issue)
	}
	s := c.sys
	res := s.llc.Lookup(blk, addr, size, false, pf, issue)
	if res.Hit {
		if c.chk != nil {
			c.verScratch = s.llc.VerOf(blk)
		}
		return mem.Response{Ready: res.ReadyAt, Source: mem.ServedLLC}
	}
	t, merged := s.llc.MissBegin(blk, res.ReadyAt)
	if merged {
		c.verScratch = 0 // delivered version unknown
		return mem.Response{Ready: t, Source: mem.ServedDRAM}
	}

	// Directory: an SDC, else a remote private stack, may hold the
	// block; DRAM otherwise.
	var ready int64
	var ver uint64
	src := mem.ServedDRAM
	if sharers := s.sdcSharers(blk); sharers != 0 {
		// Transfer from an SDC: the SDC domain gives the block up so the
		// hierarchy becomes the owner.
		ver, _ = s.surrenderSDCs(blk, sharers, t)
		s.sdcDir.InvalidateAll(blk)
		ready, src = t+s.sdcDir.Latency()+s.cfg.DirLatency/8, mem.ServedSDC
	} else if rc := s.privateHolder(blk, c); rc != nil {
		if c.chk != nil {
			ver = rc.privateVer(blk)
		}
		ready, src = t+s.cfg.DirLatency/2, mem.ServedRemote
	} else {
		ready = s.dram.Access(blk, false, t)
		if c.chk != nil {
			ver = c.chk.DRAMRead(blk)
		}
	}
	s.llcInstall(blk, addr, size, false, false, ready, ver)
	s.llc.MissEnd(blk, ready)
	if c.chk != nil {
		c.verScratch = ver
	}
	if s.llcpf != nil && !pf {
		s.llcTrain(mem.AccessInfo{PC: c.curPC, Addr: addr, Blk: blk, Core: c.id}, t)
	}
	return mem.Response{Ready: ready, Source: src}
}

// llcTrain shows a demand LLC miss issued at t to the cross-core LLC
// prefetcher (the "pickle" preset), which observes every core's miss
// stream here and issues precise prefetches into the shared level. Both
// engines call it from serial code: the legacy interleaver inside
// llcAccess, bound–weave during the (t, core, seq)-ordered replay, so
// training and issue order are independent of -wj.
func (s *System) llcTrain(info mem.AccessInfo, t int64) {
	s.llcPfBuf = s.llcpf.OnAccess(info, s.llcPfBuf[:0])
	for _, cand := range s.llcPfBuf {
		s.llcPrefetch(cand, t)
	}
}

// llcPrefetch fetches a cross-core candidate into the shared LLC. The
// block must be absent from the whole hierarchy (a shared-level fill
// above a private dirty copy would shadow it in lookup order) and from
// every SDC (the SDCDir owns those blocks).
func (s *System) llcPrefetch(blk mem.BlockAddr, now int64) {
	if s.anyCacheHolds(blk) || s.sdcSharers(blk) != 0 || !s.llc.PrefetchBegin(blk, now) {
		return
	}
	ready := s.dram.Access(blk, false, now)
	var ver uint64
	if k := s.checkerFor(blk); k != nil {
		ver = k.DRAMRead(blk)
	}
	s.llcInstall(blk, blk.Addr(), mem.BlockSize, false, true, ready, ver)
	s.llc.MarkPrefetchFill()
	s.llc.MissEnd(blk, ready)
}

// CheckInvariants runs one structural invariant sweep over every cache
// and the SDCDir (see internal/check/invariants.go). It is a no-op
// unless the run is at check.Full; the runner calls it every
// checkSweepEvery retired instructions and once more at the end.
func (s *System) CheckInvariants() {
	k := s.chk
	if k == nil || k.Level() != check.Full {
		return
	}
	k.Sweeps++
	k.CheckCache("LLC", s.llc)
	sdcs := make([]*cache.Cache, len(s.cores))
	for _, c := range s.cores {
		for _, l := range c.levels {
			k.CheckCache(fmt.Sprintf("core%d/%s", c.id, l.name), l.cache)
		}
		sdcs[c.id] = c.sdc
	}
	if s.sdcDir != nil {
		k.CheckSDCDir(s.sdcDir, sdcs, s.anyCacheHolds)
	}
}
