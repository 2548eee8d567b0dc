package cpu

import (
	"math/rand"
	"testing"

	"graphmem/internal/graph"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// fixedMem returns a MemFunc with constant latency, recording issue
// times.
func fixedMem(lat int64, issues *[]int64) MemFunc {
	return func(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
		if issues != nil {
			*issues = append(*issues, issue)
		}
		return mem.Response{Ready: issue + lat, Source: mem.ServedL1D}
	}
}

func TestIPCBoundedByWidth(t *testing.T) {
	c := New(DefaultConfig(), fixedMem(4, nil))
	// 10000 non-memory instructions + cheap loads: IPC <= 4.
	for i := 0; i < 1000; i++ {
		c.Access(trace.Record{PC: 1, Addr: mem.Addr(i * 4), Size: 4, NonMem: 9})
	}
	cycles := c.Cycle()
	ipc := float64(c.Instructions) / float64(cycles)
	if ipc > 4.0 {
		t.Errorf("IPC = %.2f exceeds width", ipc)
	}
	if ipc < 3.0 {
		t.Errorf("IPC = %.2f too low for single-cycle instructions", ipc)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	var issues []int64
	c := New(DefaultConfig(), fixedMem(200, &issues))
	for i := 0; i < 8; i++ {
		c.Access(trace.Record{PC: 1, Addr: mem.Addr(i * 64), Size: 4})
	}
	// All 8 independent loads must issue within the first few cycles,
	// not 200 apart.
	for i, is := range issues {
		if is > 10 {
			t.Errorf("load %d issued at %d; independent loads should overlap", i, is)
		}
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	var issues []int64
	c := New(DefaultConfig(), fixedMem(200, &issues))
	c.Access(trace.Record{PC: 1, Addr: 0, Size: 4})
	c.Access(trace.Record{PC: 2, Addr: 64, Size: 4, DepDist: 1})
	c.Access(trace.Record{PC: 3, Addr: 128, Size: 4, DepDist: 1})
	if issues[1] < issues[0]+200 {
		t.Errorf("dependent load issued at %d, producer completes at %d", issues[1], issues[0]+200)
	}
	if issues[2] < issues[1]+200 {
		t.Errorf("chained load issued at %d", issues[2])
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// With latency 1000 and a 224-entry ROB of loads, loads beyond the
	// window cannot issue until the head retires.
	var issues []int64
	c := New(DefaultConfig(), fixedMem(1000, &issues))
	n := 500
	for i := 0; i < n; i++ {
		c.Access(trace.Record{PC: 1, Addr: mem.Addr(i * 64), Size: 4})
	}
	if issues[0] > 5 {
		t.Fatalf("first load issued at %d", issues[0])
	}
	// Load #300 is past the first ROB window: it must wait for the
	// first batch to retire (~1000 cycles).
	if issues[300] < 900 {
		t.Errorf("load 300 issued at %d; ROB should have stalled it", issues[300])
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// Long-latency memory, but stores are buffered: a stream of stores
	// retires at ~width rate.
	c := New(DefaultConfig(), fixedMem(500, nil))
	for i := 0; i < 1000; i++ {
		c.Access(trace.Record{PC: 1, Addr: mem.Addr(i * 64), Size: 4, Write: true, NonMem: 3})
	}
	ipc := float64(c.Instructions) / float64(c.Cycle())
	if ipc < 2.5 {
		t.Errorf("store-stream IPC = %.2f; stores must not stall the pipe", ipc)
	}
	if c.Stores != 1000 {
		t.Errorf("Stores = %d", c.Stores)
	}
}

func TestLoadLatencyAccumulates(t *testing.T) {
	c := New(DefaultConfig(), fixedMem(42, nil))
	for i := 0; i < 10; i++ {
		c.Access(trace.Record{PC: 1, Addr: mem.Addr(i * 64), Size: 4})
	}
	if c.LoadLatency != 420 {
		t.Errorf("LoadLatency = %d, want 420", c.LoadLatency)
	}
	if c.Loads != 10 || c.MemOps != 10 {
		t.Errorf("loads=%d memops=%d", c.Loads, c.MemOps)
	}
}

func TestCyclesMonotone(t *testing.T) {
	c := New(DefaultConfig(), fixedMem(10, nil))
	last := int64(0)
	for i := 0; i < 100; i++ {
		c.Access(trace.Record{PC: 1, Addr: mem.Addr(i * 64), Size: 4, NonMem: 2})
		if c.Cycle() < last {
			t.Fatalf("cycle went backwards: %d -> %d", last, c.Cycle())
		}
		last = c.Cycle()
	}
}

func TestLatencyBoundIPC(t *testing.T) {
	// A fully serialized dependent chain of N loads at latency L takes
	// at least N*L cycles.
	c := New(DefaultConfig(), fixedMem(100, nil))
	n := 50
	for i := 0; i < n; i++ {
		rec := trace.Record{PC: 1, Addr: mem.Addr(i * 64), Size: 4}
		if i > 0 {
			rec.DepDist = 1
		}
		c.Access(rec)
	}
	if c.Cycle() < int64(n-1)*100 {
		t.Errorf("chain of %d dependent 100-cycle loads finished at %d", n, c.Cycle())
	}
}

func TestHigherLatencyLowersIPC(t *testing.T) {
	run := func(lat int64) float64 {
		c := New(DefaultConfig(), fixedMem(lat, nil))
		for i := 0; i < 2000; i++ {
			rec := trace.Record{PC: 1, Addr: mem.Addr(i * 64), Size: 4, NonMem: 3}
			if i%2 == 1 {
				rec.DepDist = 1
			}
			c.Access(rec)
		}
		return float64(c.Instructions) / float64(c.Cycle())
	}
	fast, slow := run(10), run(300)
	if slow >= fast {
		t.Errorf("IPC fast=%.3f slow=%.3f; latency must cost throughput", fast, slow)
	}
}

func TestWiderCoreFaster(t *testing.T) {
	run := func(width int) float64 {
		cfg := DefaultConfig()
		cfg.Width = width
		c := New(cfg, fixedMem(4, nil))
		for i := 0; i < 2000; i++ {
			c.Access(trace.Record{PC: 1, Addr: mem.Addr(i % 64 * 64), Size: 4, NonMem: 7})
		}
		return float64(c.Instructions) / float64(c.Cycle())
	}
	if w1, w4 := run(1), run(4); w4 <= w1 {
		t.Errorf("width-4 IPC %.2f not above width-1 IPC %.2f", w4, w1)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Width: 0, ROB: 10}, fixedMem(1, nil))
}

func TestStallRaisesDispatchFloor(t *testing.T) {
	// Stall floors *future* dispatches: the next access after Stall(n)
	// must not issue before n.
	var issues []int64
	c := New(DefaultConfig(), fixedMem(4, &issues))
	for i := 0; i < 10; i++ {
		c.Access(trace.Record{PC: 1, Addr: mem.Addr(i * 64), Size: 4, NonMem: 2})
	}
	floor := c.DispatchCycle() + 500
	c.Stall(floor)
	c.Access(trace.Record{PC: 1, Addr: 11 * 64, Size: 4})
	if got := issues[len(issues)-1]; got < floor {
		t.Fatalf("access issued at %d despite Stall(%d)", got, floor)
	}
	if got := c.DispatchCycle(); got < floor {
		t.Fatalf("DispatchCycle = %d below the stall floor %d", got, floor)
	}
	// Stall is monotonic: a lower target must not rewind the clock.
	c.Stall(floor - 400)
	c.Access(trace.Record{PC: 1, Addr: 12 * 64, Size: 4})
	if got := c.DispatchCycle(); got < floor {
		t.Fatalf("a lower Stall target rewound the clock to %d", got)
	}
}

func TestBranchMissPenaltySlowsDispatchBoundStream(t *testing.T) {
	// A dispatch-bound stream (cheap loads, no ROB pressure) cannot
	// absorb refill stalls, so a large penalty must cost cycles and the
	// selection hash must fire on roughly 1/32 of records.
	run := func(penalty int64) (int64, int64) {
		cfg := DefaultConfig()
		cfg.BranchMissPenalty = penalty
		c := New(cfg, fixedMem(2, nil))
		for i := 0; i < 4096; i++ {
			c.Access(trace.Record{PC: uint64(0x400000 + (i%7)*8), Addr: mem.Addr(i * 64), Size: 4, NonMem: 1})
		}
		return c.Cycle(), c.BranchMisses
	}
	base, baseMisses := run(0)
	slow, misses := run(200)
	if baseMisses != 0 {
		t.Fatalf("penalty-0 run counted %d branch misses", baseMisses)
	}
	if misses < 4096/32/4 || misses > 4096/32*4 {
		t.Fatalf("selection hash fired %d times over 4096 records, want ~%d", misses, 4096/32)
	}
	if slow <= base {
		t.Fatalf("penalized run took %d cycles, unpenalized %d", slow, base)
	}
	// Each injected stall can cost at most the penalty.
	if slow > base+misses*200+int64(4096) {
		t.Fatalf("penalized run took %d cycles; base %d + %d misses * 200 cannot explain it", slow, base, misses)
	}
}

func TestBranchMissSelectionIsDeterministic(t *testing.T) {
	run := func() int64 {
		cfg := DefaultConfig()
		cfg.BranchMissPenalty = 14
		c := New(cfg, fixedMem(3, nil))
		for i := 0; i < 2048; i++ {
			c.Access(trace.Record{PC: uint64(0x400000 + (i%5)*8), Addr: mem.Addr(i * 32), Size: 4})
		}
		return c.BranchMisses
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("selection differs across identical runs: %d vs %d", a, b)
	}
}

func TestValueHintReachesMemory(t *testing.T) {
	// An annotated load's own value rides in its hint; the next load's
	// DepDist=1 edge must surface the producer's (PC, value) pair.
	var hints []mem.ValueHint
	c := New(DefaultConfig(), func(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
		hints = append(hints, hint)
		return mem.Response{Ready: issue + 2, Source: mem.ServedL1D}
	})
	c.Access(trace.Record{PC: 0x400010, Addr: 0x1000, Size: 4, Value: 42, HasValue: true})
	c.Access(trace.Record{PC: 0x400020, Addr: 0x2000, Size: 8, DepDist: 1})
	c.Access(trace.Record{PC: 0x400030, Addr: 0x3000, Size: 8, Write: true})
	c.Access(trace.Record{PC: 0x400040, Addr: 0x4000, Size: 8, DepDist: 1})
	if h := hints[0]; !h.HasValue || h.Value != 42 || h.DepHasValue {
		t.Fatalf("annotated load's hint = %+v", h)
	}
	if h := hints[1]; !h.DepHasValue || h.DepPC != 0x400010 || h.DepValue != 42 || h.HasValue {
		t.Fatalf("dependent load's hint = %+v, want producer (pc 0x400010, value 42)", h)
	}
	if h := hints[2]; h != (mem.ValueHint{}) {
		t.Fatalf("store carried a non-zero hint %+v", h)
	}
	// A load depending on the store gets no value: stores clear their
	// ring slot.
	if h := hints[3]; h.DepHasValue {
		t.Fatalf("store-dependent load's hint = %+v, want no producer value", h)
	}
}

// refCore is the core's recurrence as it was written before the rings
// became powers of two: a ring of exactly ROB+Width+1 slots indexed by
// sequence number modulo its size, the dispatch group taken from
// seqInstr % Width, and the record rings indexed modulo 1<<16. It is
// kept verbatim as the independent model TestCoreMatchesModuloReference
// compares Core against.
type refCore struct {
	cfg Config
	mem MemFunc

	dispatch []int64
	retire   []int64
	ringSize int64

	recComplete []int64
	recPC       []uint64
	recVal      []uint64
	recHasVal   []bool
	recRing     int64

	seqInstr int64
	seqRec   int64

	Instructions int64
	MemOps       int64
	Loads        int64
	Stores       int64
	LoadLatency  int64
	BranchMisses int64

	lastRetire int64
	stallUntil int64
}

func newRefCore(cfg Config, memFn MemFunc) *refCore {
	ring := int64(cfg.ROB + cfg.Width + 1)
	return &refCore{
		cfg:         cfg,
		mem:         memFn,
		dispatch:    make([]int64, ring),
		retire:      make([]int64, ring),
		ringSize:    ring,
		recComplete: make([]int64, 1<<16),
		recPC:       make([]uint64, 1<<16),
		recVal:      make([]uint64, 1<<16),
		recHasVal:   make([]bool, 1<<16),
		recRing:     1 << 16,
	}
}

func (c *refCore) Cycle() int64 { return c.lastRetire }

func (c *refCore) DispatchCycle() int64 {
	if c.seqInstr == 0 {
		return 0
	}
	return c.dispatch[(c.seqInstr-1)%c.ringSize]
}

func (c *refCore) dispatchTime() int64 {
	i := c.seqInstr
	d := int64(0)
	if i > 0 {
		d = c.dispatch[(i-1)%c.ringSize]
		if i%int64(c.cfg.Width) == 0 {
			d++ // new dispatch group
		}
	}
	if i >= int64(c.cfg.ROB) {
		if r := c.retire[(i-int64(c.cfg.ROB))%c.ringSize]; r > d {
			d = r
		}
	}
	if d < c.stallUntil {
		d = c.stallUntil
	}
	return d
}

func (c *refCore) Stall(cycle int64) {
	if cycle > c.stallUntil {
		c.stallUntil = cycle
	}
}

func (c *refCore) commit(d, comp int64) {
	i := c.seqInstr
	r := comp
	if r < d+1 {
		r = d + 1
	}
	if i > 0 {
		if prev := c.retire[(i-1)%c.ringSize]; prev > r {
			r = prev
		}
	}
	if i >= int64(c.cfg.Width) {
		if w := c.retire[(i-int64(c.cfg.Width))%c.ringSize] + 1; w > r {
			r = w
		}
	}

	idx := i % c.ringSize
	c.dispatch[idx] = d
	c.retire[idx] = r
	c.seqInstr++
	c.Instructions++
	c.lastRetire = r
}

func (c *refCore) Access(r trace.Record) {
	if c.cfg.BranchMissPenalty > 0 {
		h := (r.PC ^ uint64(c.seqRec)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
		if h>>59 == 0 {
			c.BranchMisses++
			c.Stall(c.dispatchTime() + c.cfg.BranchMissPenalty)
		}
	}

	for k := uint16(0); k < r.NonMem; k++ {
		d := c.dispatchTime()
		c.commit(d, d+c.cfg.ExecLatency)
	}

	recSeq := c.seqRec
	c.seqRec++
	c.MemOps++

	if r.Write {
		c.Stores++
		issued := c.dispatchTime()
		c.commit(issued, issued+1)
		c.mem(r.PC, r.Addr, r.Size, true, issued, mem.ValueHint{})
		idx := recSeq % c.recRing
		c.recComplete[idx] = issued + 1
		c.recHasVal[idx] = false
		return
	}

	c.Loads++
	d := c.dispatchTime()
	issue := d
	hint := mem.ValueHint{Value: r.Value, HasValue: r.HasValue}
	if r.DepDist > 0 {
		depSeq := recSeq - int64(r.DepDist)
		if depSeq >= 0 && recSeq-depSeq < c.recRing {
			di := depSeq % c.recRing
			if t := c.recComplete[di]; t > issue {
				issue = t
			}
			if c.recHasVal[di] {
				hint.DepPC = c.recPC[di]
				hint.DepValue = c.recVal[di]
				hint.DepHasValue = true
			}
		}
	}
	resp := c.mem(r.PC, r.Addr, r.Size, false, issue, hint)
	c.commit(d, resp.Ready)
	idx := recSeq % c.recRing
	c.recComplete[idx] = resp.Ready
	c.recPC[idx] = r.PC
	c.recVal[idx] = r.Value
	c.recHasVal[idx] = r.HasValue
	c.LoadLatency += resp.Ready - issue
}

// memCall is one request as the memory system saw it.
type memCall struct {
	write bool
	issue int64
	hint  mem.ValueHint
}

// hashMem returns a MemFunc whose latency is a hash of (addr, issue) —
// mostly a few cycles, sometimes hundreds, so the ROB fills and drains —
// and which logs every call.
func hashMem(log *[]memCall) MemFunc {
	return func(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
		*log = append(*log, memCall{write, issue, hint})
		h := (uint64(addr)*0x9E3779B97F4A7C15 ^ uint64(issue)) * 0xBF58476D1CE4E5B9
		lat := int64(1 + h>>60)
		if h>>56&0xF == 0 {
			lat += int64(h >> 54 & 0x3FF)
		}
		return mem.Response{Ready: issue + lat, Source: mem.ServedL1D}
	}
}

// TestCoreMatchesModuloReference replays seeded random record streams
// into Core and into refCore and requires, after every record, equal
// clocks, equal counters and an equal (issue, hint) sequence at the
// memory system. The stream is longer than the 1<<16 record ring so
// dependencies both inside and beyond it occur at every ring position.
func TestCoreMatchesModuloReference(t *testing.T) {
	records := 70_000
	if testing.Short() {
		records = 8_000
	}
	for _, width := range []int{1, 3, 4, 6} {
		for _, rob := range []int{1, 7, 224, 256} {
			for _, penalty := range []int64{0, 12} {
				cfg := Config{Width: width, ROB: rob, ExecLatency: 1, BranchMissPenalty: penalty}
				rng := rand.New(rand.NewSource(int64(width)<<20 | int64(rob)<<4 | penalty))
				var gotLog, wantLog []memCall
				got := New(cfg, hashMem(&gotLog))
				want := newRefCore(cfg, hashMem(&wantLog))
				for n := 0; n < records; n++ {
					rec := trace.Record{
						PC:   0x400000 + uint64(rng.Intn(16))*8,
						Addr: mem.Addr(rng.Intn(1<<14) * 8),
						Size: 8,
					}
					switch rng.Intn(4) {
					case 0:
						rec.NonMem = uint16(rng.Intn(41))
					case 1, 2:
						rec.NonMem = uint16(rng.Intn(4))
					}
					if rng.Intn(5) == 0 {
						rec.Write = true
					} else {
						switch rng.Intn(4) {
						case 0:
							rec.DepDist = int32(1 + rng.Intn(4))
						case 1:
							rec.DepDist = int32(1 + rng.Intn(80_000))
						}
						if rng.Intn(3) == 0 {
							rec.Value, rec.HasValue = rng.Uint64(), true
						}
					}
					if rng.Intn(64) == 0 {
						floor := want.DispatchCycle() + int64(rng.Intn(300)) - 50
						got.Stall(floor)
						want.Stall(floor)
					}
					got.Access(rec)
					want.Access(rec)

					if got.group != got.seqInstr%int64(width) {
						t.Fatalf("%+v record %d: group counter %d, seqInstr %d", cfg, n, got.group, got.seqInstr)
					}
					if got.Cycle() != want.Cycle() || got.DispatchCycle() != want.DispatchCycle() {
						t.Fatalf("%+v record %d: cycle/dispatch = %d/%d, reference %d/%d",
							cfg, n, got.Cycle(), got.DispatchCycle(), want.Cycle(), want.DispatchCycle())
					}
					gotC := [6]int64{got.Instructions, got.MemOps, got.Loads, got.Stores, got.LoadLatency, got.BranchMisses}
					wantC := [6]int64{want.Instructions, want.MemOps, want.Loads, want.Stores, want.LoadLatency, want.BranchMisses}
					if gotC != wantC {
						t.Fatalf("%+v record %d: counters %v, reference %v", cfg, n, gotC, wantC)
					}
					if len(gotLog) != 1 || len(wantLog) != 1 || gotLog[0] != wantLog[0] {
						t.Fatalf("%+v record %d: memory saw %+v, reference %+v", cfg, n, gotLog, wantLog)
					}
					gotLog, wantLog = gotLog[:0], wantLog[:0]
				}
				if penalty > 0 && got.BranchMisses == 0 {
					t.Fatalf("%+v: no branch miss injected in %d records", cfg, records)
				}
			}
		}
	}
}

// prKronRecords captures the head of the pr.kron record stream once.
var prKronRecords []trace.Record

// BenchmarkCoreAccess replays recorded pr.kron records into the core
// over a constant-latency memory: the cost of the instruction
// recurrences alone, the same probe the benchmark module reports as
// cpu.access_ns_per_record.
func BenchmarkCoreAccess(b *testing.B) {
	if prKronRecords == nil {
		sink := &trace.SliceSink{Limit: 1 << 18}
		kernels.Registry()["pr"](graph.Kron(16, 8, 42), mem.NewSpace(0)).Run(trace.New(sink))
		prKronRecords = sink.Recs
	}
	recs := prKronRecords
	c := New(DefaultConfig(), func(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
		return mem.Response{Ready: issue + 4, Source: mem.ServedL1D}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(recs[i%len(recs)])
	}
}
