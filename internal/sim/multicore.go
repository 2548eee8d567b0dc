package sim

import (
	"fmt"
	"sync/atomic"

	"graphmem/internal/check"
	"graphmem/internal/obs"
	"graphmem/internal/stats"
	"graphmem/internal/trace"
)

// Multi-core simulation runs each workload's kernel in a producer
// goroutine that streams trace items over a bounded channel. Two
// consumer engines exist:
//
//   - the legacy serial engine (Config.Quantum == 0, the default): a
//     single scheduler interleaves the streams by always advancing the
//     core with the smallest local clock, which keeps the shared
//     LLC/DRAM/directory timestamps near-monotonic;
//   - the bound–weave parallel engine (Config.Quantum > 0): cores run
//     concurrently for a cycle quantum against a frozen view of the
//     shared state and a serial weave replays their shared-domain
//     events in deterministic order (see boundweave.go).
//
// Cores that complete their measurement window keep executing — and
// keep contending — until every core has finished, exactly like
// ChampSim's multi-programmed replay; the weighted-speed-up metric of
// Section IV-D is then computed by the harness from per-thread shared
// and isolated IPCs.

const mcChunk = 4096

// mcItem is one element of a producer stream: either a trace record or
// a progress marker for the T-OPT oracle.
type mcItem struct {
	rec        trace.Record
	progress   uint64
	isProgress bool
}

// mcProducer is the trace.Sink running inside a kernel goroutine.
// Chunk buffers are recycled through the free channel: the consumer
// returns exhausted chunks and the producer reuses them instead of
// allocating a fresh []mcItem per chunk.
type mcProducer struct {
	ch   chan []mcItem
	free chan []mcItem
	buf  []mcItem
	stop *atomic.Bool
}

// Access implements trace.Sink (called from the kernel goroutine).
func (p *mcProducer) Access(r trace.Record) bool {
	p.buf = append(p.buf, mcItem{rec: r})
	if len(p.buf) >= mcChunk {
		p.ch <- p.buf
		select {
		case b := <-p.free:
			p.buf = b
		default:
			p.buf = make([]mcItem, 0, mcChunk)
		}
	}
	return !p.stop.Load()
}

// SetProgress implements trace.ProgressSink.
func (p *mcProducer) SetProgress(edges uint64) {
	p.buf = append(p.buf, mcItem{progress: edges, isProgress: true})
}

// flushAndClose drains the final partial chunk.
func (p *mcProducer) flushAndClose() {
	if len(p.buf) > 0 {
		p.ch <- p.buf
		p.buf = nil
	}
	close(p.ch)
}

// mcStream is the consumer-side iterator over one core's items.
type mcStream struct {
	ch     chan []mcItem
	free   chan []mcItem
	cur    []mcItem
	pos    int
	closed bool
}

// next returns the next item, blocking on the producer; ok=false when
// the stream ended. Exhausted chunks are recycled to the producer.
func (s *mcStream) next() (mcItem, bool) {
	for {
		if s.pos < len(s.cur) {
			it := s.cur[s.pos]
			s.pos++
			return it, true
		}
		if s.cur != nil {
			select {
			case s.free <- s.cur[:0]:
			default:
			}
			s.cur = nil
		}
		if s.closed {
			return mcItem{}, false
		}
		chunk, ok := <-s.ch
		if !ok {
			s.closed = true
			return mcItem{}, false
		}
		s.cur, s.pos = chunk, 0
	}
}

// drain discards everything left in the stream (after global stop).
func (s *mcStream) drain() {
	for range s.ch {
	}
	s.closed = true
	s.cur, s.pos = nil, 0
}

// mcSlot is one core's consumer-side state, shared by both engines.
// Idle slots (no workload) have a nil prod.
type mcSlot struct {
	c      *coreCtx
	stream *mcStream
	prod   *mcProducer
	stop   *atomic.Bool
	alive  bool
	// panicked holds a kernel goroutine's recovered panic value. The
	// producer stores it before flushAndClose runs (its deferral order
	// guarantees that), so the channel close that ends the stream is a
	// happens-before edge and the consumer reads it race-free.
	panicked any
}

// startSlots builds the per-core slots and launches one producer
// goroutine per active workload. A kernel panic is captured on the
// slot and the stream still closes, so the scheduler never blocks on
// a dead producer; raiseKernelPanics rethrows it after drain.
func startSlots(sys *System, ws []Workload) []*mcSlot {
	var slots []*mcSlot
	for i, c := range sys.cores {
		if ws[i].Inst == nil {
			slots = append(slots, &mcSlot{c: c})
			continue
		}
		stop := &atomic.Bool{}
		free := make(chan []mcItem, 4)
		prod := &mcProducer{ch: make(chan []mcItem, 4), free: free, buf: make([]mcItem, 0, mcChunk), stop: stop}
		sl := &mcSlot{
			c:      c,
			stream: &mcStream{ch: prod.ch, free: free},
			prod:   prod,
			stop:   stop,
			alive:  true,
		}
		slots = append(slots, sl)
		inst := ws[i].Inst
		go func() {
			defer prod.flushAndClose()
			defer func() {
				if r := recover(); r != nil {
					sl.panicked = r
				}
			}()
			// Restart the kernel until the consumer calls a stop; a
			// kernel that emits nothing ends the stream.
			for !stop.Load() {
				tr := trace.New(prod)
				before := tr.Seq()
				inst.Run(tr)
				if tr.Seq() == before {
					return
				}
			}
		}()
	}
	return slots
}

// stopAndDrain signals every producer to stop and drains the streams so
// no producer goroutine stays blocked on a full channel. It is
// idempotent (draining a closed, empty channel is a no-op), and both
// engines also run it via defer so consumer-side panics cannot leak
// producer goroutines.
func stopAndDrain(slots []*mcSlot) {
	for _, sl := range slots {
		if sl.stop != nil {
			sl.stop.Store(true)
		}
	}
	for _, sl := range slots {
		if sl.stream != nil {
			sl.stream.drain()
		}
	}
}

// raiseKernelPanics rethrows the first captured kernel-goroutine panic,
// after every producer has been stopped and drained. Before the
// capture existed a kernel panic killed the whole process; now it
// surfaces as a regular panic in the calling goroutine (which the
// harness's single-flight memo already propagates).
func raiseKernelPanics(slots []*mcSlot) {
	for _, sl := range slots {
		if sl.panicked != nil {
			panic(fmt.Sprintf("sim: kernel goroutine for core %d panicked: %v", sl.c.id, sl.panicked))
		}
	}
}

// collectMulti assembles the result after every core finished.
func collectMulti(sys *System, ws []Workload, slots []*mcSlot) *MultiResult {
	res := &MultiResult{Config: sys.cfg.Name}
	for i, sl := range slots {
		sl.c.finish()
		res.PerCore = append(res.PerCore, sl.c.measured)
		res.Names = append(res.Names, ws[i].Name)
		res.Epochs = append(res.Epochs, sl.c.epochs)
		if sl.c.recorder != nil {
			res.Recorders = append(res.Recorders, sl.c.recorder.Summary())
		} else {
			res.Recorders = append(res.Recorders, nil)
		}
	}
	return res
}

// mcHeap is a binary min-heap of live slots keyed on
// (DispatchCycle, core id) — the exact selection rule of the old
// O(cores) linear scan, which picked the first slot with the strictly
// smallest clock (i.e. ties break toward the lower core id).
type mcHeap struct {
	sl []*mcSlot
}

func (h *mcHeap) less(a, b *mcSlot) bool {
	ca, cb := a.c.cpuCore.DispatchCycle(), b.c.cpuCore.DispatchCycle()
	if ca != cb {
		return ca < cb
	}
	return a.c.id < b.c.id
}

func (h *mcHeap) push(sl *mcSlot) {
	h.sl = append(h.sl, sl)
	i := len(h.sl) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.sl[i], h.sl[p]) {
			break
		}
		h.sl[i], h.sl[p] = h.sl[p], h.sl[i]
		i = p
	}
}

// siftDown restores the heap property after the root's key grew (the
// only mutation the scheduler performs: advancing the minimum core).
func (h *mcHeap) siftDown() {
	i, n := 0, len(h.sl)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(h.sl[l], h.sl[min]) {
			min = l
		}
		if r < n && h.less(h.sl[r], h.sl[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.sl[i], h.sl[min] = h.sl[min], h.sl[i]
		i = min
	}
}

// popMin removes the root (a slot whose stream ended).
func (h *mcHeap) popMin() {
	n := len(h.sl) - 1
	h.sl[0] = h.sl[n]
	h.sl[n] = nil
	h.sl = h.sl[:n]
	if n > 0 {
		h.siftDown()
	}
}

// MultiResult is the outcome of a multi-core run.
type MultiResult struct {
	Config string
	// PerCore holds each core's measurement-window stats; idle slots
	// have zero Instructions.
	PerCore []stats.CoreStats
	// Names are the per-slot workload names.
	Names []string
	// Epochs holds each core's epoch telemetry series (nil slices
	// unless the config's EpochInterval was positive).
	Epochs [][]obs.EpochSample
	// Check is the system-wide differential-checker outcome (zero value
	// unless the config's CheckLevel was set).
	Check check.Summary
	// Recorders holds each core's flight-recorder summary, indexed like
	// PerCore (nil entries unless the config's FlightRecorder was set
	// and the slot ran a workload). On multi-core
	// machines the private L1D/SDC/L2 telemetry is per core; shared
	// LLC/DRAM taps stay detached since their events are not
	// attributable to one core.
	Recorders []*obs.RecSummary
}

// IPCs returns the per-core measured IPCs.
func (m *MultiResult) IPCs() []float64 {
	out := make([]float64, len(m.PerCore))
	for i := range m.PerCore {
		out[i] = m.PerCore[i].IPC()
	}
	return out
}

// RunMultiCore simulates the given workloads sharing one machine. Nil
// instances mark idle cores (used for isolation runs).
func RunMultiCore(cfg Config, ws []Workload) *MultiResult {
	return RunMultiCoreOn(NewSystem(cfg, ws), ws)
}

// RunMultiCoreOn runs the mix on a pre-built system (which must have
// been constructed with the same workloads), so callers can inspect
// machine state afterwards. Config.Quantum selects the engine: the
// legacy serial interleaver (0) or the bound–weave parallel engine
// (boundweave.go). The Fig. 3 Observer hook sees loads synchronously,
// which only the serial engine can offer; like every other combination
// that does not compose (Config.Validate), asking for both stops the run
// here rather than silently answering from the other timing model.
func RunMultiCoreOn(sys *System, ws []Workload) *MultiResult {
	if sys.cfg.Quantum > 0 && sys.Observer != nil {
		panic("sim: the load observer cannot run on the bound-weave engine (it sees loads synchronously; use the serial engine, Quantum 0)")
	}
	slots := startSlots(sys, ws)
	// A consumer-side panic must not leave producers blocked on their
	// channels; the explicit stopAndDrain on the normal path makes this
	// deferred one a no-op.
	defer stopAndDrain(slots)

	if sys.cfg.Quantum > 0 {
		return runBoundWeave(sys, ws, slots)
	}

	active := 0
	h := &mcHeap{}
	for _, sl := range slots {
		if sl.alive {
			active++
			h.push(sl)
		}
	}

	// Scheduler: repeatedly advance the live core with the smallest
	// dispatch clock, so memory requests hit the shared LLC/DRAM
	// reservations in near-timestamp order (see cpu.DispatchCycle).
	remaining := active
	for remaining > 0 && len(h.sl) > 0 {
		pick := h.sl[0]
		it, ok := pick.stream.next()
		if !ok {
			// Stream ended (kernel emitted nothing on restart).
			pick.alive = false
			h.popMin()
			if !pick.c.doneMeasure {
				pick.c.finish()
				remaining--
			}
			continue
		}
		if it.isProgress {
			// The clock is unchanged, so the root key is unchanged too.
			if o, okp := pick.c.oracle.(trace.ProgressSink); okp && o != nil {
				o.SetProgress(it.progress)
			}
			continue
		}
		wasDone := pick.c.doneMeasure
		pick.c.observe(it.rec)
		if !wasDone && pick.c.doneMeasure {
			remaining--
		}
		h.siftDown() // the root's clock advanced
	}

	stopAndDrain(slots)
	raiseKernelPanics(slots)

	res := collectMulti(sys, ws, slots)
	sys.CheckInvariants() // final structural sweep (no-op unless check.Full)
	if sys.chk != nil {
		res.Check = sys.chk.Summary()
	}
	return res
}
