package sim

import (
	"fmt"
	"math"

	"graphmem/internal/check"
	"graphmem/internal/mem"
	"graphmem/internal/obs"
	"graphmem/internal/sample"
	"graphmem/internal/stats"
	"graphmem/internal/trace"
)

// snapshotCounters captures the running totals of every counter that
// feeds the measurement-window delta.
func (c *coreCtx) snapshotCounters() stats.CoreStats {
	var s stats.CoreStats
	s.Cycles = c.cpuCore.Cycle()
	s.Instructions = c.cpuCore.Instructions
	s.MemOps = c.cpuCore.MemOps
	s.Loads = c.cpuCore.Loads
	s.Stores = c.cpuCore.Stores
	s.TotalLoadLatency = c.cpuCore.LoadLatency
	s.L1D = c.l1d.Stats
	s.L2 = c.l2.Stats
	s.LLC = c.sys.llc.Stats
	if c.sdc != nil {
		s.SDC = c.sdc.Stats
	}
	s.DTLB = c.tlbs.DTLB.Stats
	s.STLB = c.tlbs.STLB.Stats
	if c.lp != nil {
		s.LPPredAverse = c.lp.PredAverse
		s.LPPredFriendly = c.lp.PredFriendly
		s.LPTableMisses = c.lp.TableMisses
	}
	if c.sys.sdcDir != nil {
		s.SDCDirLookups = c.sys.sdcDir.Lookups
		s.SDCDirEvictions = c.sys.sdcDir.Evictions
	}
	d := c.sys.dram.TotalStats()
	s.DRAMReads = d.Reads
	s.DRAMWrites = d.Writes
	s.DRAMRowHits = d.RowHits
	s.DRAMRowMisses = d.RowMisses
	s.ServedSDC = c.served[mem.ServedSDC]
	s.ServedL1D = c.served[mem.ServedL1D]
	s.ServedL2 = c.served[mem.ServedL2]
	s.ServedLLC = c.served[mem.ServedLLC]
	s.ServedRemote = c.served[mem.ServedRemote]
	s.ServedDRAM = c.served[mem.ServedDRAM]
	return s
}

// noEpoch disables the epoch boundary check: the hot loop's only cost
// when sampling is off is one always-false int64 comparison.
const noEpoch = math.MaxInt64

// observe processes one record through the core and advances the
// window state machine. It returns false once the measure window is
// complete.
//
// The fast path is a single comparison: nextEvent is the earliest of
// every armed boundary (invariant sweep, warm-up end, epoch sample,
// measure-window end), recomputed by rearm whenever any of them moves.
// Records between boundaries pay one compare and one branch.
func (c *coreCtx) observe(r trace.Record) bool {
	if c.warmMode != warmOff {
		return c.warmObserve(r)
	}
	c.cpuCore.Access(r)
	if c.cpuCore.Instructions < c.nextEvent {
		return !c.doneMeasure
	}
	return c.observeSlow()
}

// observeSlow handles a record that reached a boundary: it runs the
// full check cascade and re-arms nextEvent.
func (c *coreCtx) observeSlow() bool {
	if c.cpuCore.Instructions >= c.nextSweep {
		c.nextSweep = c.cpuCore.Instructions + checkSweepEvery
		c.sys.CheckInvariants()
	}
	cfg := c.sys.cfg
	if !c.inMeasure {
		if c.cpuCore.Instructions >= cfg.Warmup {
			c.beginMeasure()
		}
		c.rearm()
		return true
	}
	if c.cpuCore.Instructions >= c.nextEpoch {
		c.sampleEpoch()
	}
	if c.cpuCore.Instructions >= c.nextFR {
		c.sampleFR()
	}
	if c.cpuCore.Instructions >= c.nextSampleStart {
		c.beginSample()
	}
	if c.cpuCore.Instructions >= c.nextSampleMeas {
		c.beginSampleMeasure()
	}
	if c.cpuCore.Instructions >= c.nextSampleEnd {
		c.endSample()
	}
	if !c.doneMeasure && c.cpuCore.Instructions >= c.baseCounters.Instructions+cfg.Measure {
		if cfg.Sampling.Enabled() {
			c.measuredFromSamples()
		} else {
			end := c.snapshotCounters()
			c.measured = stats.Delta(end, c.baseCounters)
			c.closeEpochs(end)
			c.closeFR()
			c.doneMeasure = true
		}
	}
	c.rearm()
	return !c.doneMeasure
}

// rearm recomputes nextEvent as the minimum pending boundary for the
// current window state.
func (c *coreCtx) rearm() {
	ne := c.nextSweep
	cfg := c.sys.cfg
	if !c.inMeasure {
		if cfg.Warmup < ne {
			ne = cfg.Warmup
		}
	} else if !c.doneMeasure {
		if c.nextEpoch < ne {
			ne = c.nextEpoch
		}
		if c.nextFR < ne {
			ne = c.nextFR
		}
		if c.nextSampleStart < ne {
			ne = c.nextSampleStart
		}
		if c.nextSampleMeas < ne {
			ne = c.nextSampleMeas
		}
		if c.nextSampleEnd < ne {
			ne = c.nextSampleEnd
		}
		if end := c.baseCounters.Instructions + cfg.Measure; end < ne {
			ne = end
		}
	}
	c.nextEvent = ne
}

// beginMeasure opens the measurement window at the current counters and
// arms the epoch sampler.
func (c *coreCtx) beginMeasure() {
	if c.sys.cfg.Sampling.Enabled() {
		c.beginMeasureSampled()
		return
	}
	c.baseCounters = c.snapshotCounters()
	c.inMeasure = true
	c.epochBase = c.baseCounters
	c.nextEpoch = noEpoch
	if iv := c.sys.cfg.EpochInterval; iv > 0 {
		c.nextEpoch = c.baseCounters.Instructions + iv
	}
	c.attachFR()
}

// attachFR opens the flight-recorder window: the recorder becomes the
// live tap on the core and every cache level. It runs at the same
// point the measurement baseline is snapshotted (beginMeasure), and
// closeFR detaches at the window-close snapshot, so the recorder's
// totals are exactly the measurement-window counter deltas. Shared
// LLC/DRAM taps attach only on a one-core machine, where their events
// are attributable to this core — and never under bound–weave, where
// shared-domain events fire at weave replay time, outside any single
// core's window.
func (c *coreCtx) attachFR() {
	if c.recorder == nil {
		return
	}
	r := c.recorder
	c.fr = r
	c.setTaps(r)
	c.sampleFR() // baseline timeline point at the window start
}

// setTaps attaches tap to the core and the MSHR file of every cache
// level whose events are attributable to it, or detaches them all (nil).
func (c *coreCtx) setTaps(tap mem.Tap) {
	c.cpuCore.Tap = tap
	for _, l := range c.levels {
		l.cache.SetTap(tap, l.src)
	}
	if c.sys.cfg.Cores == 1 && c.sys.bw == nil {
		c.sys.llc.SetTap(tap, mem.ServedLLC)
		c.sys.dram.SetTap(tap)
	}
}

// sampleFR appends one occupancy-timeline point and re-arms the next
// sample boundary. All reads are pure: MSHR fills via InFlight, DRAM
// bank/bus state via BusyBanks/BusBacklog, evaluated at the dispatch
// clock (the clock new requests are issued against).
func (c *coreCtx) sampleFR() {
	now := c.cpuCore.DispatchCycle()
	var mshr [obs.NumLevels]int32
	for _, l := range c.levels {
		if m := l.cache.MSHR(); m != nil {
			mshr[l.src] = int32(m.InFlight(now))
		}
	}
	if m := c.sys.llc.MSHR(); m != nil {
		mshr[mem.ServedLLC] = int32(m.InFlight(now))
	}
	c.recorder.Sample(c.cpuCore.Instructions, c.cpuCore.Cycle(), mshr,
		int32(c.sys.dram.BusyBanks(now)), c.sys.dram.BusBacklog(now))
	c.nextFR = c.cpuCore.Instructions + c.frInterval
}

// closeFR takes the final timeline point at the window close and
// detaches every tap, so post-window activity (multi-core contention
// execution) is not recorded.
func (c *coreCtx) closeFR() {
	if c.fr == nil {
		return
	}
	c.sampleFR()
	c.fr = nil
	c.setTaps(nil)
	c.nextFR = noEpoch
}

// sampleEpoch closes the running epoch at the current counters,
// appending its delta to the series. An epoch may overshoot the
// configured interval by the instruction count of the record that
// crossed the boundary; the next boundary is re-anchored at the actual
// sample point so consecutive samples always tile the window.
func (c *coreCtx) sampleEpoch() {
	snap := c.snapshotCounters()
	c.epochs = append(c.epochs, obs.EpochSample{
		Index:      len(c.epochs),
		StartInstr: c.epochBase.Instructions,
		EndInstr:   snap.Instructions,
		Stats:      stats.Delta(snap, c.epochBase),
	})
	c.epochBase = snap
	c.nextEpoch = snap.Instructions + c.sys.cfg.EpochInterval
}

// closeEpochs flushes the final (possibly short) epoch at the window
// end — the same snapshot the measured window is computed from, so the
// per-epoch instruction counts sum exactly to the window — and disarms
// the sampler (cores keep executing for contention after their window
// closes in multi-core runs).
func (c *coreCtx) closeEpochs(end stats.CoreStats) {
	c.nextEpoch = noEpoch
	if c.sys.cfg.EpochInterval <= 0 {
		return
	}
	if end.Instructions > c.epochBase.Instructions {
		c.epochs = append(c.epochs, obs.EpochSample{
			Index:      len(c.epochs),
			StartInstr: c.epochBase.Instructions,
			EndInstr:   end.Instructions,
			Stats:      stats.Delta(end, c.epochBase),
		})
	}
	c.epochBase = end
}

// finish closes out a core whose trace ended before the windows filled:
// whatever ran after warm-up is measured.
func (c *coreCtx) finish() {
	if c.doneMeasure {
		return
	}
	if c.sys.cfg.Sampling.Enabled() {
		// A sampled trace ended early: whatever samples completed (plus a
		// possibly open one) are the estimate. A run too short to reach
		// its warm-up end has no samples and measures zero, which the
		// estimate's Samples==0 makes explicit.
		if c.inMeasure {
			c.measuredFromSamples()
		} else {
			c.doneMeasure = true
			c.leaveWarm()
		}
		c.rearm()
		return
	}
	if !c.inMeasure {
		// The whole (short) run becomes the measurement.
		c.baseCounters = stats.CoreStats{}
		c.epochBase = stats.CoreStats{}
		c.inMeasure = true
	}
	end := c.snapshotCounters()
	c.measured = stats.Delta(end, c.baseCounters)
	c.closeEpochs(end)
	c.closeFR()
	c.doneMeasure = true
	c.rearm()
}

// singleSink adapts a coreCtx to trace.Sink for single-core runs.
type singleSink struct {
	c *coreCtx
}

// Access implements trace.Sink.
func (s *singleSink) Access(r trace.Record) bool { return s.c.observe(r) }

// SetProgress implements trace.ProgressSink, feeding the T-OPT oracle.
func (s *singleSink) SetProgress(edges uint64) {
	if o, ok := s.c.oracle.(trace.ProgressSink); ok && o != nil {
		o.SetProgress(edges)
	}
}

// Result is the outcome of a single-core run.
type Result struct {
	Config   string
	Workload string
	Stats    stats.CoreStats
	// Reruns counts how many times the kernel restarted to fill the
	// instruction windows.
	Reruns int
	// Epochs is the per-epoch telemetry series (nil unless the config's
	// EpochInterval was positive). Consecutive samples tile the
	// measurement window: their instruction counts sum to
	// Stats.Instructions.
	Epochs []obs.EpochSample
	// Check is the differential-checker outcome (zero value unless the
	// config's CheckLevel was set).
	Check check.Summary
	// Recorder is the flight-recorder summary (nil unless the config's
	// FlightRecorder was set). Its served totals equal the corresponding
	// Stats.ServedX counters exactly.
	Recorder *obs.RecSummary
	// Sampling is the statistical estimate with confidence intervals
	// (nil unless the config's Sampling was enabled). When present,
	// Stats holds the sum of the detailed samples' counter deltas.
	Sampling *sample.Estimate
}

// IPC is the measured instructions per cycle.
func (r *Result) IPC() float64 { return r.Stats.IPC() }

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %s", r.Config, r.Workload, r.Stats.String())
}

// RunSingleCore simulates workload w alone on a machine configured by
// cfg (which must have Cores == 1 for a private machine, or more for
// an "isolation on the shared machine" run with idle cores).
func RunSingleCore(cfg Config, w Workload) *Result {
	ws := make([]Workload, cfg.Cores)
	ws[0] = w
	sys := NewSystem(cfg, ws)
	return sys.RunCore0(w)
}

// RunCore0 drives workload w on core 0 until its windows fill.
func (s *System) RunCore0(w Workload) *Result {
	c := s.cores[0]
	sink := &singleSink{c: c}
	reruns := 0
	for !c.doneMeasure {
		tr := trace.New(sink)
		before := c.cpuCore.Instructions
		w.Inst.Run(tr)
		if c.cpuCore.Instructions == before {
			break // kernel emitted nothing; windows cannot fill
		}
		if !c.doneMeasure {
			reruns++
		}
	}
	c.finish()
	s.CheckInvariants() // final structural sweep (no-op unless check.Full)
	res := &Result{
		Config:   s.cfg.Name,
		Workload: w.Name,
		Stats:    c.measured,
		Reruns:   reruns,
		Epochs:   c.epochs,
	}
	if s.chk != nil {
		res.Check = s.chk.Summary()
	}
	if c.recorder != nil {
		res.Recorder = c.recorder.Summary()
	}
	if s.cfg.Sampling.Enabled() {
		est := sample.NewEstimate(c.sampleDeltas)
		res.Sampling = &est
	}
	return res
}
