package sim

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"graphmem/internal/check"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// Bound–weave parallel engine (ZSim / Graphite style, selected by
// Config.Quantum > 0).
//
// Simulation proceeds in global cycle quanta. In the *bound phase* each
// simulated core runs on its own host goroutine until its dispatch
// clock reaches the quantum boundary, touching only private state —
// core, L1D, victim cache, L2, SDC, TLBs, LP — plus *reads* of the
// frozen shared structures (LLC, DRAM state, SDCDir). Every
// shared-domain side effect (LLC lookup/fill/invalidate, DRAM access,
// SDCDir transition) is buffered into the core's ordered event log with
// a deterministic estimated latency. The serial *weave phase* then
// merges all logs in (timestamp, core, seq) order and replays them
// against the real shared structures; the difference between actual and
// estimated latency accumulates as per-core skew, charged to the core
// as a dispatch stall at the quantum boundary.
//
// One deliberate semantic difference from the legacy engine: a core
// stops consuming its trace the moment its measurement window closes,
// rather than replaying on for contention until every core finishes
// (with a quantum longer than the run, a finished core would otherwise
// spin forever inside its bound task). The stop point is a pure
// function of the core's own state, so it cannot affect determinism.
//
// Determinism: the bound phase shares nothing mutable between cores
// (each core's accesses stay inside its disjoint 1 TiB address window,
// so even remote-cache probes are compile-time dead under this engine),
// the weave order is a pure function of the logs, and the worker count
// only changes which host thread runs which independent bound task.
// Reports are therefore byte-identical at any WeaveWorkers setting,
// including the -wj 1 serial reference.
//
// Differential checking: the shadow oracle (internal/check) is sharded
// per core — exact, because each core is the single writer of its
// window. Program-order checks run at bound time against the core's own
// shard; cross-core effects (an LLC replay eviction writing another
// core's dirty block back to DRAM) are applied to the owning shard
// serially during the weave. Structural invariant sweeps run at quantum
// boundaries, where replay has made the shared structures consistent.

// bwLine is one overlay entry: the core's private view of its own
// pending LLC changes this quantum (fills and invalidations the weave
// has not applied yet).
type bwLine struct {
	present bool
	ver     uint64
}

// bwEventKind classifies a logged shared-domain event.
type bwEventKind uint8

const (
	// bwEvLLCRead is a read reaching the LLC (demand or prefetch):
	// predicted hit, predicted miss to DRAM, or an SDC-to-hierarchy
	// transfer (bwFXfer). Replay runs the real lookup / MSHR / fill.
	bwEvLLCRead bwEventKind = iota
	// bwEvLLCBypass is a bypass-path (Selective-Cache ablation) access
	// served at the LLC or DRAM without allocation.
	bwEvLLCBypass
	// bwEvLLCWB is a dirty write-back fill into the LLC.
	bwEvLLCWB
	// bwEvLLCInval purges the LLC copy (SDC write took ownership).
	bwEvLLCInval
	// bwEvDRAMRead / bwEvDRAMWrite access DRAM directly (SDC fast path,
	// bypass path, SDC write-backs).
	bwEvDRAMRead
	bwEvDRAMWrite
	// bwEvDir* replay SDCDir transitions (stats/LRU-bearing lookups,
	// sharer-set changes).
	bwEvDirLookup
	bwEvDirAdd
	bwEvDirRemove
	bwEvDirInvalAll
)

// bwEvent flag bits.
const (
	// bwFXfer marks an LLC read filled by an SDC transfer rather than
	// DRAM.
	bwFXfer uint8 = 1 << iota
	// bwFWrite marks a bypass event as a store.
	bwFWrite
	// bwFPf marks prefetch traffic: replayed for state/stats but its
	// latency never skews the core (prefetches are off the critical
	// path).
	bwFPf
	// bwFExcl marks a directory AddSharer as an exclusive write upgrade.
	bwFExcl
)

// bwEvent is one buffered shared-domain access. The weave replays
// events in (t, core, seq) order: t is the estimated shared-domain
// arrival time, core/seq break ties deterministically (seq is the
// event's position in its core's log, i.e. program order).
type bwEvent struct {
	t    int64
	est  int64 // estimated ready time; skew = actual - est (0: no skew)
	blk  mem.BlockAddr
	addr mem.Addr
	ver  uint64 // version stamp the fill installs (checked runs)
	core int32
	seq  int32
	kind bwEventKind
	flag uint8
	size uint8
}

// bwCore is one core's bound-phase state.
type bwCore struct {
	eng *bwEngine
	id  int32
	// overlay is the core's private view of its own LLC changes this
	// quantum, consulted before the frozen LLC (bwLLCView).
	overlay map[mem.BlockAddr]bwLine
	// log is the quantum's event buffer, in program order.
	log []bwEvent
	// skew accumulates Σ(actual − estimated) latency from the weave.
	// Positive skew stalls the core at the quantum boundary and resets;
	// negative skew persists as credit against future corrections.
	skew int64
	// tClock makes the core's logged timestamps non-decreasing: some
	// events are stamped with completion times (an SDC fill's AddSharer
	// at the fill's ready time) while later program-order events carry
	// earlier issue times; without the clamp the (t, core, seq) weave
	// order could replay them inverted — e.g. a directory InvalidateAll
	// before the AddSharer it must undo, leaving a stale sharer bit.
	// With it, weave order always respects per-core program order.
	tClock int64
}

// logEv appends an event to the core's log, stamping provenance and
// clamping t so the core's event times never run backwards.
func (b *bwCore) logEv(e bwEvent) {
	if e.t < b.tClock {
		e.t = b.tClock
	} else {
		b.tClock = e.t
	}
	e.core = b.id
	e.seq = int32(len(b.log))
	b.log = append(b.log, e)
}

// bwDeferredEvict is an SDCDir capacity eviction raised during replay;
// the SDC invalidations are applied at weave end (the bound phase that
// logged the quantum's events saw the copies as still live, so they
// cannot be yanked mid-replay).
type bwDeferredEvict struct {
	blk     mem.BlockAddr
	sharers uint64
}

// bwEngine drives the quantum loop for one system.
type bwEngine struct {
	sys     *System
	quantum int64
	workers int
	// dramEst is the deterministic DRAM latency estimate used by the
	// bound phase: the unloaded row-hit channel latency. The weave
	// charges the difference to the real bank/bus reservations as skew.
	dramEst int64
	cores   []*bwCore
	// quanta counts completed quanta (the value passed to QuantumTaps).
	quanta int64

	// Scratch reused across quanta.
	events   []bwEvent
	live     []*mcSlot
	panics   []any
	deferred []bwDeferredEvict

	// sweepMark is the total instruction count at the last invariant
	// sweep (engine-driven; per-core observeSlow sweeps are disarmed
	// under this engine).
	sweepMark int64
}

func newBWEngine(sys *System) *bwEngine {
	eng := &bwEngine{
		sys:     sys,
		quantum: sys.cfg.Quantum,
		workers: sys.cfg.WeaveWorkers,
		dramEst: sys.dram.MinLatency(),
	}
	if eng.workers <= 0 {
		eng.workers = runtime.GOMAXPROCS(0)
	}
	for i, c := range sys.cores {
		c.bw = &bwCore{eng: eng, id: int32(i), overlay: make(map[mem.BlockAddr]bwLine)}
		eng.cores = append(eng.cores, c.bw)
		// Sweeps are engine-driven at quantum boundaries (the shared
		// structures are only consistent there); disarm the per-core
		// observeSlow trigger.
		c.nextSweep = noEpoch
		if sys.chk != nil {
			// Shard the oracle: program-order checks go against the
			// core's own shard (exact — single writer per window);
			// sys.chk keeps the structural sweeps and the merge base.
			c.chk = check.New(sys.cfg.CheckLevel)
		}
	}
	return eng
}

// blockOwner returns the core whose address window blk belongs to.
func blockOwner(blk mem.BlockAddr) int {
	return int(uint64(blk) >> (mem.CoreSpaceBits - mem.BlockBits))
}

// deferEvict buffers an SDCDir capacity eviction raised during replay.
func (eng *bwEngine) deferEvict(blk mem.BlockAddr, sharers uint64) {
	eng.deferred = append(eng.deferred, bwDeferredEvict{blk: blk, sharers: sharers})
}

// applyDeferredEvicts performs the SDC back-invalidations of directory
// entries evicted during replay. An entry re-added later in the same
// weave keeps its copies: only cores the *final* directory state no
// longer tracks are invalidated, preserving the SDC ⟺ SDCDir invariant
// at the sweep point.
func (eng *bwEngine) applyDeferredEvicts() {
	s := eng.sys
	for _, d := range eng.deferred {
		cur, _, _ := s.sdcDir.Probe(d.blk) // re-added sharers are still tracked
		s.surrenderSDCs(d.blk, d.sharers&^cur, wbOwnerClock)
	}
	eng.deferred = eng.deferred[:0]
}

// boundOne advances one core's private simulation to the quantum
// boundary (or its stream's end). Runs concurrently with other cores'
// bound tasks: everything it touches is private to the slot except
// read-only probes of the frozen shared structures.
func (eng *bwEngine) boundOne(sl *mcSlot, qEnd int64) {
	c := sl.c
	if qt, ok := c.cpuCore.Tap.(mem.QuantumTap); ok {
		qt.BeginQuantum(eng.quanta)
	}
	for sl.alive && c.cpuCore.DispatchCycle() < qEnd {
		it, ok := sl.stream.next()
		if !ok {
			sl.alive = false
			return
		}
		if it.isProgress {
			if o, okp := c.oracle.(trace.ProgressSink); okp && o != nil {
				o.SetProgress(it.progress)
			}
			continue
		}
		if !c.observe(it.rec) {
			// Window closed: under bound–weave a core stops at its own
			// boundary (the legacy engine replays finished cores for
			// contention; here that would never terminate when the quantum
			// exceeds the run). Purely core-local, hence deterministic.
			return
		}
	}
}

// boundPhase runs every live core's bound task, fanned out over up to
// eng.workers host goroutines. Tasks are independent, so the worker
// count affects scheduling only, never results; workers ≤ 1 (or a
// single live core) degrades to the in-place serial reference.
func (eng *bwEngine) boundPhase(slots []*mcSlot, qEnd int64) {
	live := eng.live[:0]
	for _, sl := range slots {
		if sl.alive && !sl.c.doneMeasure {
			live = append(live, sl)
		}
	}
	eng.live = live

	workers := eng.workers
	if workers > len(live) {
		workers = len(live)
	}
	if workers <= 1 {
		for _, sl := range live {
			eng.boundOne(sl, qEnd)
		}
		return
	}

	if cap(eng.panics) < workers {
		eng.panics = make([]any, workers)
	}
	panics := eng.panics[:workers]
	for i := range panics {
		panics[i] = nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(live) {
					return
				}
				eng.boundOne(live[i], qEnd)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			// Re-raise on the engine goroutine; RunMultiCoreOn's deferred
			// stopAndDrain keeps producer goroutines from leaking.
			panic(p)
		}
	}
}

// weave merges the quantum's event logs in (t, core, seq) order and
// replays them serially against the real shared structures, then
// settles the quantum: deferred directory evictions, skew stalls,
// overlay/log reset.
func (eng *bwEngine) weave() {
	evs := eng.events[:0]
	for _, b := range eng.cores {
		evs = append(evs, b.log...)
	}
	slices.SortFunc(evs, func(a, b bwEvent) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		if c := cmp.Compare(a.core, b.core); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range evs {
		eng.replay(&evs[i])
	}
	eng.events = evs[:0]
	eng.applyDeferredEvicts()
	for _, b := range eng.cores {
		b.log = b.log[:0]
		clear(b.overlay)
		if b.skew > 0 {
			c := eng.sys.cores[b.id]
			c.cpuCore.Stall(c.cpuCore.DispatchCycle() + b.skew)
			b.skew = 0
		}
	}
	eng.quanta++
}

// replay applies one event to the shared structures and accumulates
// latency skew for skew-bearing kinds (est > 0, non-prefetch).
func (eng *bwEngine) replay(e *bwEvent) {
	s := eng.sys
	var actual int64
	switch e.kind {
	case bwEvLLCRead:
		actual = eng.replayLLCRead(e)
	case bwEvLLCBypass:
		actual = eng.replayLLCBypass(e)
	case bwEvLLCWB:
		s.llcWriteback(e.blk, e.t, e.ver)
		return
	case bwEvLLCInval:
		// Dirty data transferred into the logging core's SDC fill; the
		// LLC copy is just dropped (move semantics, no write-back).
		s.llc.Invalidate(e.blk)
		return
	case bwEvDRAMRead:
		actual = s.dram.Access(e.blk, false, e.t)
	case bwEvDRAMWrite:
		// Writes are posted: the bound phase already returned; only the
		// bank/bus reservation is replayed. The oracle's DRAM-version
		// update ran at bound time in the owner's shard.
		s.dram.Access(e.blk, true, e.t)
		return
	case bwEvDirLookup:
		s.sdcDir.Lookup(e.blk)
		return
	case bwEvDirAdd:
		s.sdcDir.AddSharer(e.blk, int(e.core), e.flag&bwFExcl != 0)
		return
	case bwEvDirRemove:
		s.sdcDir.RemoveSharer(e.blk, int(e.core))
		return
	case bwEvDirInvalAll:
		s.sdcDir.InvalidateAll(e.blk)
		return
	}
	if e.est > 0 && e.flag&bwFPf == 0 {
		eng.cores[e.core].skew += actual - e.est
	}
}

// replayLLCRead replays a bound-phase LLC read: the real lookup, MSHR
// merge/allocate, downstream fetch (DRAM, or the SDC-transfer latency
// for bwFXfer) and fill. A predicted hit normally hits here too; if a
// cross-core replay eviction removed the line in the meantime, the read
// refetches from DRAM with the logged version — functionally sound
// (each window has a single writer, so any installed copy is
// architecturally current) and deterministic.
func (eng *bwEngine) replayLLCRead(e *bwEvent) int64 {
	s := eng.sys
	pf := e.flag&bwFPf != 0
	res := s.llc.Lookup(e.blk, e.addr, e.size, false, pf, e.t)
	if res.Hit {
		return res.ReadyAt
	}
	t, merged := s.llc.MissBegin(e.blk, res.ReadyAt)
	if merged {
		return t
	}
	var ready int64
	if e.flag&bwFXfer != 0 {
		ready = t + s.sdcDir.Latency() + s.cfg.DirLatency/8
	} else {
		ready = s.dram.Access(e.blk, false, t)
	}
	s.llcInstall(e.blk, e.addr, e.size, false, false, ready, e.ver)
	s.llc.MissEnd(e.blk, ready)
	if s.llcpf != nil && e.flag&(bwFPf|bwFXfer) == 0 {
		s.llcTrain(mem.AccessInfo{Blk: e.blk, Addr: e.addr, Core: int(e.core)}, t)
	}
	return ready
}

// replayLLCBypass replays a bypass-path access: a real lookup against
// the LLC (no allocation on miss), falling back to DRAM exactly like
// the legacy path when the bound phase's view hit was falsified by a
// cross-core eviction.
func (eng *bwEngine) replayLLCBypass(e *bwEvent) int64 {
	s := eng.sys
	write := e.flag&bwFWrite != 0
	res := s.llc.Lookup(e.blk, e.addr, e.size, write, false, e.t)
	if res.Hit {
		if write && s.chk != nil {
			s.llc.SetVer(e.blk, e.ver)
		}
		return res.ReadyAt
	}
	if write {
		// The store's version now lands in DRAM instead of the LLC line.
		s.dramWriteback(e.blk, e.t, e.ver)
		return e.t + 1
	}
	return s.dram.Access(e.blk, false, e.t)
}

// sweepIfDue runs a structural invariant sweep when enough instructions
// retired since the last one. Called between quanta, where the weave
// has made the shared structures consistent with the private ones.
func (eng *bwEngine) sweepIfDue(final bool) {
	if eng.sys.chk == nil || eng.sys.chk.Level() != check.Full {
		return
	}
	var total int64
	for _, c := range eng.sys.cores {
		total += c.cpuCore.Instructions
	}
	if final || total-eng.sweepMark >= checkSweepEvery {
		eng.sweepMark = total
		eng.sys.CheckInvariants()
	}
}

// runBoundWeave is the bound–weave replacement for the legacy serial
// scheduler loop in RunMultiCoreOn (which owns slot startup and the
// deferred drain).
func runBoundWeave(sys *System, ws []Workload, slots []*mcSlot) *MultiResult {
	eng := newBWEngine(sys)
	sys.bw = eng
	defer func() {
		sys.bw = nil
		for _, c := range sys.cores {
			c.bw = nil
		}
	}()

	remaining := 0
	for _, sl := range slots {
		if sl.alive {
			remaining++
		}
	}

	qEnd := eng.quantum
	for remaining > 0 {
		eng.boundPhase(slots, qEnd)
		eng.weave()
		eng.sweepIfDue(false)

		remaining = 0
		minClock := int64(noEpoch)
		for _, sl := range slots {
			if sl.alive && !sl.c.doneMeasure {
				if cc := sl.c.cpuCore.DispatchCycle(); cc < minClock {
					minClock = cc
				}
				remaining++
			} else if !sl.alive && !sl.c.doneMeasure {
				// Stream ended mid-window: close the core out (idempotent).
				sl.c.finish()
			}
		}

		// Advance the boundary. When every live core is already past
		// several quanta (e.g. a long skew stall), skip ahead to the
		// first boundary beyond the slowest live core — deterministic,
		// since it depends only on simulated clocks.
		next := qEnd + eng.quantum
		if minClock != noEpoch {
			if q := (minClock/eng.quantum + 1) * eng.quantum; q > next {
				next = q
			}
		}
		qEnd = next
	}

	stopAndDrain(slots)
	raiseKernelPanics(slots)

	res := collectMulti(sys, ws, slots)
	eng.sweepIfDue(true) // final structural sweep at a consistent point
	if sys.chk != nil {
		sum := sys.chk.Summary()
		for _, c := range sys.cores {
			if c.chk != nil && c.chk != sys.chk {
				sum = sum.Merge(c.chk.Summary())
			}
		}
		res.Check = sum
	}
	return res
}

// --- bound-phase shared-domain shims (called from system.go when
// c.bw != nil) ---

// bwLLCView returns the core's current view of its own block in the
// LLC: the quantum's private overlay first, then the frozen LLC. Only
// the owning core ever asks about a block, so the view is never stale
// in a way that matters: cross-core replay evictions can falsify a
// predicted hit, which replayLLCRead repairs.
func (c *coreCtx) bwLLCView(blk mem.BlockAddr) (present bool, ver uint64) {
	if ln, ok := c.bw.overlay[blk]; ok {
		return ln.present, ln.ver
	}
	s := c.sys
	if s.llc.Probe(blk) {
		return true, s.llc.VerOf(blk)
	}
	return false, 0
}

// bwOverlaySet records a pending LLC view change.
func (c *coreCtx) bwOverlaySet(blk mem.BlockAddr, present bool, ver uint64) {
	c.bw.overlay[blk] = bwLine{present: present, ver: ver}
}

// llcHolds reports whether the LLC (through the bound-phase view when
// active) holds blk.
func (c *coreCtx) llcHolds(blk mem.BlockAddr) bool {
	if c.bw != nil {
		p, _ := c.bwLLCView(blk)
		return p
	}
	p, _ := c.sys.llc.ProbeDirty(blk)
	return p
}

// llcVer returns the (view-aware) LLC version stamp of blk.
func (c *coreCtx) llcVer(blk mem.BlockAddr) uint64 {
	if c.bw != nil {
		if p, v := c.bwLLCView(blk); p {
			return v
		}
		return 0
	}
	return c.sys.llc.VerOf(blk)
}

// bwDRAMRead logs a direct DRAM read and returns its estimated
// completion; the weave replays it against the real bank/bus
// reservations and charges the difference as skew (unless pf).
func (c *coreCtx) bwDRAMRead(blk mem.BlockAddr, t int64, pf bool) int64 {
	est := t + c.bw.eng.dramEst
	var f uint8
	if pf {
		f = bwFPf
	}
	c.bw.logEv(bwEvent{kind: bwEvDRAMRead, t: t, est: est, blk: blk, flag: f})
	return est
}

// bwDRAMWrite logs a posted DRAM write. The oracle's DRAM version map
// is updated immediately in the core's own shard (program order);
// replay only reserves bank/bus time.
func (c *coreCtx) bwDRAMWrite(blk mem.BlockAddr, t int64, ver uint64) {
	c.bw.logEv(bwEvent{kind: bwEvDRAMWrite, t: t, blk: blk, ver: ver})
	if c.chk != nil {
		c.chk.DRAMWrite(blk, ver)
	}
}

// bwDirLookup logs a stats/LRU-bearing SDCDir lookup. The bound phase
// answers the actual sharer question from its own SDC: under disjoint
// per-core windows this core is the only possible sharer of its
// blocks, so SDC presence ⟺ directory presence (the invariant sweeps
// verify exactly that).
func (c *coreCtx) bwDirLookup(blk mem.BlockAddr, t int64) {
	c.bw.logEv(bwEvent{kind: bwEvDirLookup, t: t, blk: blk})
}

// bwDirAddSharer logs an AddSharer transition (exclusive on writes).
func (c *coreCtx) bwDirAddSharer(blk mem.BlockAddr, t int64, excl bool) {
	var f uint8
	if excl {
		f = bwFExcl
	}
	c.bw.logEv(bwEvent{kind: bwEvDirAdd, t: t, blk: blk, flag: f})
}

// bwDirRemoveSharer logs a RemoveSharer transition (SDC eviction).
func (c *coreCtx) bwDirRemoveSharer(blk mem.BlockAddr, t int64) {
	c.bw.logEv(bwEvent{kind: bwEvDirRemove, t: t, blk: blk})
}

// bwDirInvalidateAll logs an InvalidateAll (hierarchy took ownership).
func (c *coreCtx) bwDirInvalidateAll(blk mem.BlockAddr, t int64) {
	c.bw.logEv(bwEvent{kind: bwEvDirInvalAll, t: t, blk: blk})
}

// bwLLCInvalidate logs an LLC purge and hides the copy from the view.
func (c *coreCtx) bwLLCInvalidate(blk mem.BlockAddr, t int64) {
	c.bw.logEv(bwEvent{kind: bwEvLLCInval, t: t, blk: blk})
	c.bwOverlaySet(blk, false, 0)
}

// bwLLCAccess is the bound-phase llcAccess: it serves against the view
// with deterministic estimated latencies and logs the real work for the
// weave.
func (c *coreCtx) bwLLCAccess(blk mem.BlockAddr, addr mem.Addr, size uint8, pf bool, issue int64) mem.Response {
	s := c.sys
	var f uint8
	if pf {
		f = bwFPf
	}

	if present, hver := c.bwLLCView(blk); present {
		est := issue + s.llc.Latency()
		c.bw.logEv(bwEvent{kind: bwEvLLCRead, t: issue, est: est, blk: blk, addr: addr, size: size, ver: hver, flag: f})
		if c.chk != nil {
			c.verScratch = hver
		}
		return mem.Response{Ready: est, Source: mem.ServedLLC}
	}

	t := issue + s.llc.Latency() // miss still pays the lookup

	// SDC-to-hierarchy transfer: under disjoint windows our own SDC is
	// the only possible sharer, so the directory question is answered by
	// a private probe; the directory's own transitions replay in order.
	if s.sdcDir != nil && c.sdc != nil && c.sdc.Probe(blk) {
		c.bwDirLookup(blk, t)
		// The SDC surrenders with the data "moving" — into the log: the
		// write-back to DRAM replays in the weave.
		ver, dirty := s.surrenderSDCs(blk, 1<<c.id, wbMoves)
		if dirty {
			c.bwDRAMWrite(blk, t, ver)
		}
		c.bwDirInvalidateAll(blk, t)
		ready := t + s.sdcDir.Latency() + s.cfg.DirLatency/8
		c.bw.logEv(bwEvent{kind: bwEvLLCRead, t: t, est: ready, blk: blk, addr: addr, size: size, ver: ver, flag: f | bwFXfer})
		c.bwOverlaySet(blk, true, ver)
		if c.chk != nil {
			c.verScratch = ver
		}
		return mem.Response{Ready: ready, Source: mem.ServedSDC}
	}

	// Miss to DRAM. Remote private caches can never hold our blocks, so
	// the legacy remote-probe loop is dead under this engine.
	est := t + c.bw.eng.dramEst
	var ver uint64
	if c.chk != nil {
		ver = c.chk.DRAMRead(blk)
		c.verScratch = ver
	}
	c.bw.logEv(bwEvent{kind: bwEvLLCRead, t: t, est: est, blk: blk, addr: addr, size: size, ver: ver, flag: f})
	c.bwOverlaySet(blk, true, ver)
	return mem.Response{Ready: est, Source: mem.ServedDRAM}
}

// bwBypassShared is the bound-phase tail of bypassAccess after the
// private L1D/L2 probes missed: LLC through the view, else DRAM, no
// allocation anywhere.
func (c *coreCtx) bwBypassShared(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, t int64) mem.Response {
	s := c.sys
	if present, hver := c.bwLLCView(blk); present {
		at := t + c.l2.Latency()
		est := at + s.llc.Latency()
		var f uint8
		var ver uint64
		skewEst := est
		if write {
			// Stores absorb at dispatch; their latency never reaches the
			// core, so the event carries no skew reference.
			f, skewEst = bwFWrite, 0
			if c.chk != nil {
				ver = c.chk.StoreAbsorbed(blk)
				c.bwOverlaySet(blk, true, ver)
			}
		} else if c.chk != nil {
			c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedLLC, hver)
		}
		c.bw.logEv(bwEvent{kind: bwEvLLCBypass, t: at, est: skewEst, blk: blk, addr: addr, size: size, ver: ver, flag: f})
		return mem.Response{Ready: est, Source: mem.ServedLLC}
	}
	if write {
		var ver uint64
		if c.chk != nil {
			ver = c.chk.StoreAbsorbed(blk)
		}
		c.bwDRAMWrite(blk, t, ver)
		return mem.Response{Ready: t + 1, Source: mem.ServedDRAM}
	}
	est := c.bwDRAMRead(blk, t, false)
	if c.chk != nil {
		c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedDRAM, c.chk.DRAMRead(blk))
	}
	return mem.Response{Ready: est, Source: mem.ServedDRAM}
}
