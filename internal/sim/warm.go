// Functional warming for the statistical sampling engine
// (internal/sample): the warm-up window and the gaps between detailed
// samples replay the record stream through the same component
// transitions a detailed run makes — cache.Lookup/Fill, tlb.Lookup/Fill,
// SDCDir.Lookup/AddSharer, LP.PredictAndUpdate, and system.go's own
// fillL1/fillSDC/writebackToL2/writebackToLLC chain at time 0 — so tags,
// recency, dirty bits, predictor and directory state evolve by one
// definition. The counters those transitions bump move during warming
// too; no sample sees it, because every sample's delta is the
// difference of two snapshots taken in detailed mode.
//
// What this file holds is only what is different about warming: which
// levels a warm access probes (reads are served in place, nothing waits
// on an MSHR, only the next-line prefetchers run), DRAM reads that touch
// the row instead of reserving a bank and the bus, and the sampling
// window state machine. Folding that into the detailed walk would put a
// mode branch at some 25 sites of the per-record path (ROADMAP item 2).
//
// The walk assumes the single-core machine the sampler is restricted to
// (Config.Validate): no remote SDCs or private caches exist, so the
// remote-probe arms of the detailed paths have no warm counterpart.
package sim

import (
	"graphmem/internal/mem"
	"graphmem/internal/stats"
	"graphmem/internal/trace"
)

// warmObserve consumes one record while warmMode != warmOff: it
// retires the record into the counters and warm-touches the hierarchy,
// sharing observeSlow's boundary cascade with the detailed path.
func (c *coreCtx) warmObserve(r trace.Record) bool {
	c.cpuCore.WarmRetire(r)
	if !c.sys.cfg.Sampling.MisWarm {
		c.warmTouch(r)
	}
	if c.cpuCore.Instructions < c.nextEvent {
		return !c.doneMeasure
	}
	return c.observeSlow()
}

// warmTouch is the warm counterpart of coreCtx.access: translation,
// LP/expert routing, and the chosen data path.
func (c *coreCtx) warmTouch(r trace.Record) {
	blk := r.Addr.Block()
	c.tlbs.WarmTranslate(r.Addr.Page(), c.warmWalkFn)

	averse := false
	switch c.sys.cfg.Routing {
	case RouteLP, RouteBypass:
		averse = c.lp.PredictAndUpdate(r.PC, blk)
	case RouteExpert:
		averse = c.isIrregular(r.Addr)
	}
	switch {
	case averse && c.sys.cfg.Routing == RouteBypass:
		c.warmBypass(blk, r.Addr, r.Size, r.Write)
	case averse:
		c.warmSDC(blk, r.Addr, r.Size, r.Write)
	default:
		c.warmL1(blk, r.Addr, r.Size, r.Write)
	}
}

// warmBypass is bypassAccess: serve from whatever level holds the
// block, else touch the DRAM row; nothing allocates.
func (c *coreCtx) warmBypass(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool) {
	if c.l1d.Lookup(blk, addr, size, write, false, 0).Hit ||
		c.l2.Lookup(blk, addr, size, write, false, 0).Hit ||
		c.sys.llc.Lookup(blk, addr, size, write, false, 0).Hit {
		return
	}
	c.sys.dram.WarmTouch(blk)
}

// warmSDC is sdcAccess without MSHRs.
func (c *coreCtx) warmSDC(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool) {
	s := c.sys
	if c.sdc.Lookup(blk, addr, size, write, false, 0).Hit {
		if write {
			s.sdcDir.AddSharer(blk, c.id, true)
		}
		return
	}
	// Miss. The directory may still track a copy (e.g. a WOC alias that
	// could not serve this word mask).
	if sharers := s.sdcSharers(blk); sharers != 0 {
		if write {
			s.surrenderSDCs(blk, sharers, 0)
			s.sdcDir.InvalidateAll(blk)
		}
		c.fillSDC(blk, addr, size, write, 0, 0)
		return
	}
	// The hierarchy may hold it: reads are served in place (the detailed
	// path's pure probes change no state, so there is nothing to warm);
	// writes purge every copy and take SDC ownership.
	if s.anyCacheHolds(blk) {
		if write {
			s.llc.Invalidate(blk)
			c.purgePrivate(blk)
			c.fillSDC(blk, addr, size, true, 0, 0)
		}
		return
	}
	// DRAM, bypassing L2 and LLC.
	s.dram.WarmTouch(blk)
	c.fillSDC(blk, addr, size, write, 0, 0)
	// Next-line prefetch into the SDC, exactly when the detailed path
	// issues one (a miss served from DRAM). Skipping prefetchers during
	// warming would leave the SDC tags systematically short of the
	// next-line content every sample starts from.
	c.pfBuf = c.sdcpf.OnAccess(mem.AccessInfo{Blk: blk, Addr: addr, Core: c.id}, c.pfBuf[:0])
	for _, cand := range c.pfBuf {
		c.warmSDCPrefetch(cand)
	}
}

// warmSDCPrefetch applies sdcPrefetch's fill conditions without MSHR
// occupancy checks (MSHRs are idle while warming).
func (c *coreCtx) warmSDCPrefetch(blk mem.BlockAddr) {
	s := c.sys
	if c.sdc.Probe(blk) || s.sdcSharers(blk) != 0 || s.anyCacheHolds(blk) {
		return
	}
	s.dram.WarmTouch(blk)
	c.fillSDC(blk, blk.Addr(), mem.BlockSize, false, 0, 0)
}

// warmL1 is l1Access without MSHRs and with the next-line prefetcher
// only.
func (c *coreCtx) warmL1(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool) {
	s := c.sys
	if c.l1d.Lookup(blk, addr, size, write, false, 0).Hit {
		return
	}
	if c.victim != nil {
		if present, dirty := c.victim.ProbeDirty(blk); present {
			c.victim.Invalidate(blk)
			c.fillL1(blk, addr, size, write || dirty, 0, 0)
			return
		}
	}
	// SDC transfer: the whole SDC domain gives the block up.
	if sharers := s.sdcSharers(blk); sharers&(1<<c.id) != 0 {
		_, dirty := s.surrenderSDCs(blk, sharers, wbMoves)
		s.sdcDir.InvalidateAll(blk)
		c.fillL1(blk, addr, size, write || dirty, 0, 0)
		return
	}
	c.warmL2(blk, addr, size)
	c.fillL1(blk, addr, size, write, 0, 0)
	// Next-line prefetcher on the demand miss, as in l1Access.
	c.pfBuf = c.l1pf.OnAccess(mem.AccessInfo{Blk: blk, Addr: addr, Core: c.id}, c.pfBuf[:0])
	for _, cand := range c.pfBuf {
		c.warmL1Prefetch(cand)
	}
}

// warmL1Prefetch is l1Prefetch without MSHR occupancy checks.
func (c *coreCtx) warmL1Prefetch(blk mem.BlockAddr) {
	if c.l1d.Probe(blk) || (c.victim != nil && c.victim.Probe(blk)) {
		return
	}
	c.warmL2(blk, blk.Addr(), mem.BlockSize)
	c.fillL1(blk, blk.Addr(), mem.BlockSize, false, 0, 0)
}

// warmL2 is l2Access's demand path without MSHRs or SPP (L2 lookups
// never carry the write bit — stores dirty the L1 and arrive here as
// write-backs).
func (c *coreCtx) warmL2(blk mem.BlockAddr, addr mem.Addr, size uint8) {
	if c.l2.Lookup(blk, addr, size, false, false, 0).Hit {
		return
	}
	c.warmLLC(blk, addr, size)
	c.fillL2(blk, addr, size, false, 0)
}

// warmLLC is llcAccess on a one-core machine: an SDC sharer surrenders
// the block, then the fill happens from wherever the data came.
func (c *coreCtx) warmLLC(blk mem.BlockAddr, addr mem.Addr, size uint8) {
	s := c.sys
	if s.llc.Lookup(blk, addr, size, false, false, 0).Hit {
		return
	}
	if sharers := s.sdcSharers(blk); sharers != 0 {
		s.surrenderSDCs(blk, sharers, 0)
		s.sdcDir.InvalidateAll(blk)
	} else {
		s.dram.WarmTouch(blk)
	}
	s.llcInstall(blk, addr, size, false, false, 0, 0)
}

// enterWarm switches the core to functional warming.
func (c *coreCtx) enterWarm() {
	c.warmMode = warmFunctional
	c.sys.warming = true
}

// leaveWarm hands the record stream back to the detailed path.
func (c *coreCtx) leaveWarm() {
	c.warmMode = warmOff
	c.sys.warming = false
}

// beginSample hands the record stream back to the detailed path. With a
// DetailWarm prefix the measured slice starts later (beginSampleMeasure)
// so MSHR/prefetcher/pipeline transients drain into discarded counters
// first; without one, measurement starts immediately.
func (c *coreCtx) beginSample() {
	c.leaveWarm()
	c.nextSampleStart = noEpoch
	plan := c.sys.cfg.Sampling.Plan
	c.nextSampleEnd = c.cpuCore.Instructions + plan.DetailWarm + plan.SampleLen
	if plan.DetailWarm > 0 {
		c.nextSampleMeas = c.cpuCore.Instructions + plan.DetailWarm
		return
	}
	c.beginSampleMeasure()
}

// beginSampleMeasure snapshots the per-sample baseline at the end of
// the sample's detailed-warm prefix.
func (c *coreCtx) beginSampleMeasure() {
	c.sampleBase = c.snapshotCounters()
	c.nextSampleMeas = noEpoch
}

// endSample closes the running sample, appends its counter delta to the
// series, and schedules the next sample from the window base so the
// schedule never drifts with boundary overshoot.
func (c *coreCtx) endSample() {
	snap := c.snapshotCounters()
	c.sampleDeltas = append(c.sampleDeltas, stats.Delta(snap, c.sampleBase))
	c.enterWarm()
	c.nextSampleEnd = noEpoch
	c.sampleK++
	c.nextSampleStart = c.baseCounters.Instructions + c.sys.cfg.Sampling.NextStart(c.sampleK)
}

// beginMeasureSampled is beginMeasure's sampling variant: open the
// window and arm the first sample.
func (c *coreCtx) beginMeasureSampled() {
	c.baseCounters = c.snapshotCounters()
	c.inMeasure = true
	c.nextSampleStart = c.baseCounters.Instructions + c.sys.cfg.Sampling.NextStart(0)
	if c.cpuCore.Instructions >= c.nextSampleStart {
		c.beginSample()
	}
}

// measuredFromSamples closes the window in sampling mode: any open
// sample contributes its (possibly short) delta, and the window total
// is the sum over samples: exactly the detailed portion of the window.
func (c *coreCtx) measuredFromSamples() {
	if c.nextSampleMeas != noEpoch {
		// The window closed inside a sample's discarded warm prefix:
		// nothing of this sample was measured.
		c.nextSampleMeas = noEpoch
		c.nextSampleEnd = noEpoch
	} else if c.nextSampleEnd != noEpoch {
		c.endSample()
	}
	c.leaveWarm()
	c.nextSampleStart = noEpoch
	var m stats.CoreStats
	for i := range c.sampleDeltas {
		m.Add(&c.sampleDeltas[i])
	}
	c.measured = m
	c.doneMeasure = true
}
