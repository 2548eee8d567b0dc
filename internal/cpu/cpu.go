// Package cpu models the out-of-order core of Table I: a 4-wide,
// 224-entry-ROB processor with in-order dispatch and retire and
// dependency-aware load issue.
//
// The model is analytical rather than cycle-stepped: for every
// instruction it computes dispatch, issue, completion and retirement
// timestamps from recurrences over small ring buffers, in O(1) per
// instruction. This captures exactly the effects the paper's results
// rest on — ROB-limited memory-level parallelism (a long-latency load
// blocks retirement and eventually dispatch), dependent loads
// serializing on each other, and store latency hiding via the store
// buffer — at simulation speeds high enough to run the full evaluation.
//
// The recurrences run once per simulated instruction, so they contain
// no division: every ring is a power of two indexed with a mask, and
// the position inside the dispatch group is a wrap-around counter
// rather than a remainder by Width, so non-power-of-two widths stay
// exact.
package cpu

import (
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// Config describes the core.
type Config struct {
	// Width is dispatch/retire width in instructions per cycle.
	Width int
	// ROB is the re-order buffer capacity.
	ROB int
	// ExecLatency is the completion latency of non-memory instructions.
	ExecLatency int64
	// BranchMissPenalty, when positive, injects a pipeline-refill stall
	// of that many cycles on a pseudo-random ~1/32 subset of records,
	// modeling branch mispredictions (graph traversals mispredict on
	// data-dependent branches). Zero — the default, matching Table I,
	// whose analytical model folds branch effects into ExecLatency —
	// changes nothing.
	BranchMissPenalty int64
}

// DefaultConfig returns the Table I core: 4-wide, 224-entry ROB.
func DefaultConfig() Config {
	return Config{Width: 4, ROB: 224, ExecLatency: 1}
}

// MemFunc performs a memory access issued at the given CPU cycle and
// returns its completion time and serving level. It is provided by the
// memory system (internal/sim). hint carries the value peek of the
// record and of its traced producer, for value-aware prefetchers; it is
// zero for stores and unannotated loads.
type MemFunc func(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response

// Core executes a stream of trace records against a memory system.
type Core struct {
	cfg Config
	mem MemFunc

	width, rob int64 // cfg.Width, cfg.ROB

	// Ring buffers of per-instruction timestamps, indexed by
	// instruction sequence masked to their power-of-two size.
	dispatch []int64 // dispatch cycle of instruction i
	retire   []int64 // retirement cycle of instruction i
	ringMask int64

	// complete times of recent *records* (memory instructions) for
	// dependency resolution, indexed by record sequence. recPC/recVal/
	// recHasVal shadow the same ring with each record's site PC and
	// annotated value, so a dependent load can hand its producer's
	// (PC, value) pair to the memory system as a prefetcher hint.
	recComplete []int64
	recPC       []uint64
	recVal      []uint64
	recHasVal   []bool

	seqInstr int64 // instructions dispatched
	group    int64 // seqInstr mod width: 0 opens a new dispatch group
	seqRec   int64 // memory records processed

	// Retired counters and latency accumulation.
	Instructions int64
	MemOps       int64
	Loads        int64
	Stores       int64
	LoadLatency  int64
	// BranchMisses counts injected misprediction stalls (zero unless
	// Config.BranchMissPenalty is set; not part of CoreStats — the
	// penalty is a sensitivity knob, not a reported metric).
	BranchMisses int64

	// Tap, when non-nil, receives every demand load's issue-to-ready
	// latency (the flight-recorder hook; see mem.Tap). internal/sim
	// attaches it for the measurement window only; the disabled cost is
	// one interface nil-check per load.
	Tap mem.Tap

	lastRetire int64 // retirement time of the newest instruction

	// stallUntil floors the next dispatch (see Stall): the bound–weave
	// engine pushes it forward at quantum boundaries to charge the
	// latency correction computed by the weave replay.
	stallUntil int64
}

// recRing is the size of the per-record rings: a dependency further
// back than this many records is treated as long resolved.
const recRing = 1 << 16

// New builds a core bound to a memory system.
func New(cfg Config, memFn MemFunc) *Core {
	if cfg.Width <= 0 || cfg.ROB <= 0 {
		panic("cpu: invalid core config")
	}
	// Instruction i reads slots i-1, i-Width and i-ROB before writing
	// its own, so any ring of more than max(ROB, Width) slots yields the
	// same timestamps; rounding ROB+Width+1 up to a power of two lets
	// the per-instruction index be a mask instead of a division.
	ring := int64(1)
	for ring < int64(cfg.ROB+cfg.Width+1) {
		ring <<= 1
	}
	c := &Core{
		cfg:         cfg,
		mem:         memFn,
		width:       int64(cfg.Width),
		rob:         int64(cfg.ROB),
		dispatch:    make([]int64, ring),
		retire:      make([]int64, ring),
		ringMask:    ring - 1,
		recComplete: make([]int64, recRing),
		recPC:       make([]uint64, recRing),
		recVal:      make([]uint64, recRing),
		recHasVal:   make([]bool, recRing),
	}
	return c
}

// Cycle returns the current cycle: the retirement time of the newest
// retired instruction.
func (c *Core) Cycle() int64 { return c.lastRetire }

// DispatchCycle returns the dispatch time of the newest instruction —
// the clock new memory requests are issued against. Multi-core
// scheduling orders cores by this value so that requests reach shared
// resources (LLC, DRAM banks/bus) in near-timestamp order, which the
// reservation timing model depends on; the retire clock can run far
// ahead of it when long-latency loads stall the ROB.
func (c *Core) DispatchCycle() int64 {
	if c.seqInstr == 0 {
		return 0
	}
	return c.dispatch[(c.seqInstr-1)&c.ringMask]
}

// dispatchTime computes the dispatch cycle of the next instruction:
// width-limited, and blocked until the instruction ROB-positions
// earlier has retired (its slot frees). The two halves of the old
// closure-based step recurrence are split into dispatchTime/commit so
// the memory access between them runs without a closure allocation or
// indirect call on the per-record hot path.
func (c *Core) dispatchTime() int64 {
	i := c.seqInstr
	d := int64(0)
	if i > 0 {
		d = c.dispatch[(i-1)&c.ringMask]
		if c.group == 0 {
			d++ // new dispatch group
		}
	}
	if i >= c.rob {
		if r := c.retire[(i-c.rob)&c.ringMask]; r > d {
			d = r
		}
	}
	if d < c.stallUntil {
		d = c.stallUntil
	}
	return d
}

// Stall floors every future dispatch at the given cycle — an external
// stall injected between instructions. The bound–weave engine uses it
// at quantum boundaries to apply the weave phase's latency correction
// (actual shared-resource latency minus the bound phase's estimate);
// cycles earlier than the current floor or the dispatch clock are
// no-ops, so the clock never rewinds.
func (c *Core) Stall(cycle int64) {
	if cycle > c.stallUntil {
		c.stallUntil = cycle
	}
}

// commit finishes the instruction recurrence begun by dispatchTime:
// in-order retirement, width-limited per cycle, not before completion
// and not before the previous instruction's retirement.
func (c *Core) commit(d, comp int64) {
	i := c.seqInstr
	r := comp
	if r < d+1 {
		r = d + 1
	}
	if i > 0 {
		if prev := c.retire[(i-1)&c.ringMask]; prev > r {
			r = prev
		}
	}
	if i >= c.width {
		if w := c.retire[(i-c.width)&c.ringMask] + 1; w > r {
			r = w
		}
	}

	idx := i & c.ringMask
	c.dispatch[idx] = d
	c.retire[idx] = r
	c.seqInstr++
	if c.group++; c.group == c.width {
		c.group = 0
	}
	c.Instructions++
	c.lastRetire = r
}

// Access consumes one trace record: its non-memory prelude followed by
// the memory instruction itself. It implements the instruction-level
// part of trace.Sink; internal/sim wraps it with window accounting.
func (c *Core) Access(r trace.Record) {
	if c.cfg.BranchMissPenalty > 0 {
		// A deterministic hash of (site PC, record sequence) selects
		// ~1/32 of records as mispredicted branches; the refill stall
		// floors the next dispatch. The stream is a property of the
		// trace, not the timing, so it is identical at any host parallelism.
		h := (r.PC ^ uint64(c.seqRec)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
		if h>>59 == 0 {
			c.BranchMisses++
			c.Stall(c.dispatchTime() + c.cfg.BranchMissPenalty)
		}
	}

	// Non-memory prelude: single-cycle ops.
	for k := uint16(0); k < r.NonMem; k++ {
		d := c.dispatchTime()
		c.commit(d, d+c.cfg.ExecLatency)
	}

	recSeq := c.seqRec
	c.seqRec++
	c.MemOps++

	if r.Write {
		c.Stores++
		// Stores complete into the store buffer immediately; the
		// memory system is updated in the background at dispatch time.
		// The differential checker (internal/check) relies on this
		// absorb-at-dispatch ordering: the architectural shadow version
		// of a block is bumped inside c.mem when the store is absorbed
		// by a cache level, so program order between a store and the
		// loads that follow it in the trace is exactly the order of
		// c.mem calls — no separate retirement-time commit exists.
		issued := c.dispatchTime()
		c.commit(issued, issued+1)
		c.mem(r.PC, r.Addr, r.Size, true, issued, mem.ValueHint{})
		idx := recSeq & (recRing - 1)
		c.recComplete[idx] = issued + 1
		c.recHasVal[idx] = false
		return
	}

	c.Loads++
	d := c.dispatchTime()
	issue := d
	hint := mem.ValueHint{Value: r.Value, HasValue: r.HasValue}
	// A load with a traced dependency cannot issue before the
	// producing record completed; if that producer was value-annotated,
	// its (PC, value) pair rides along as a prefetcher hint.
	if r.DepDist > 0 {
		depSeq := recSeq - int64(r.DepDist)
		if depSeq >= 0 && r.DepDist < recRing {
			di := depSeq & (recRing - 1)
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
	idx := recSeq & (recRing - 1)
	c.recComplete[idx] = resp.Ready
	c.recPC[idx] = r.PC
	c.recVal[idx] = r.Value
	c.recHasVal[idx] = r.HasValue
	c.LoadLatency += resp.Ready - issue
	if c.Tap != nil {
		c.Tap.LoadToUse(resp.Ready - issue)
	}
}

// WarmRetire consumes one trace record during functional warming
// (internal/sample): the retired-instruction counters advance — the
// sampling window machinery is positioned by Instructions — but the
// pipeline recurrences, ring buffers and clocks do not. Warming spends
// no cycles, so measurement-window cycle time is exactly the sum of the
// detailed samples' contiguous pipeline time.
func (c *Core) WarmRetire(r trace.Record) {
	c.Instructions += int64(r.NonMem) + 1
	c.MemOps++
	if r.Write {
		c.Stores++
	} else {
		c.Loads++
	}
}
