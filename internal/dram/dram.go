// Package dram models the main-memory timing of Table I: DDR4 SDRAM at
// 2.933 GT/s (I/O bus at 1466.5 MHz) with tRP = tRCD = tCAS = 24 DRAM
// cycles, an open-page row-buffer policy, and per-bank plus data-bus
// resource reservation.
//
// The model is timestamp-based: given a request's arrival time in CPU
// cycles it returns the completion time, advancing the affected bank's
// and the channel data bus's ready-at timestamps. This captures the
// first-order DRAM behaviour the paper's results depend on — row-buffer
// hits vs misses and bank/bus queueing under the bandwidth demand of
// graph workloads — without a full command scheduler.
//
// Concurrency contract (bound–weave engine, internal/sim/boundweave.go):
// DRAM bank/bus/row state is shared-domain. Under bound–weave, bound
// phases answer DRAM accesses with a deterministic latency estimate and
// log them; only the serial weave replay calls into this package, in
// deterministic (t, core, seq) order, so reservation state stays
// identical at any weave worker count.
package dram

import "graphmem/internal/mem"

// Config describes one DRAM channel's geometry and timing.
type Config struct {
	// Banks is the number of banks in the channel.
	Banks int
	// RowBytes is the row-buffer size in bytes.
	RowBytes uint64
	// TRP, TRCD, TCAS are the precharge / activate / column timings in
	// DRAM cycles.
	TRP, TRCD, TCAS int64
	// BurstCycles is the data-bus occupancy of one 64 B transfer in
	// DRAM cycles (BL8 on a 64-bit bus = 4 cycles).
	BurstCycles int64
	// CPUFreqMHz and BusFreqMHz set the clock-domain conversion from
	// DRAM cycles to CPU cycles.
	CPUFreqMHz, BusFreqMHz float64
}

// DefaultConfig returns the Table I DRAM configuration.
func DefaultConfig() Config {
	return Config{
		Banks:       16,
		RowBytes:    8192,
		TRP:         24,
		TRCD:        24,
		TCAS:        24,
		BurstCycles: 4,
		CPUFreqMHz:  2166,
		BusFreqMHz:  1466.5,
	}
}

// Stats counts channel activity.
type Stats struct {
	Reads, Writes       int64
	RowHits, RowMisses  int64
	RowConflicts        int64 // misses that also required a precharge
	BusyCycles          int64 // CPU cycles of data-bus occupancy
	TotalServiceLatency int64 // CPU cycles from arrival to completion, reads only
}

type bank struct {
	openRow  int64 // -1 when precharged
	readyAt  int64 // CPU cycle at which the bank can accept a command
	lastUsed int64
}

// Channel is one DRAM channel with private banks and a data bus.
type Channel struct {
	cfg     Config
	ratio   float64 // CPU cycles per DRAM cycle
	banks   []bank
	busFree int64 // CPU cycle at which the data bus is next free
	Stats   Stats
	// agg, when non-nil, receives every counter increment so the owning
	// Memory's TotalStats is O(1) instead of a per-call sum over the
	// full channel geometry (the epoch sampler reads it per sample).
	agg *Stats
	// tap, when non-nil, receives every read's service latency and
	// row-buffer outcome (the flight-recorder hook; see mem.Tap).
	// Attached for the measurement window only; the disabled cost is
	// one interface nil-check per read.
	tap mem.Tap
}

// NewChannel builds a channel from cfg.
func NewChannel(cfg Config) *Channel {
	if cfg.Banks <= 0 || cfg.RowBytes == 0 {
		panic("dram: invalid config")
	}
	if cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		panic("dram: RowBytes must be a power of two")
	}
	ch := &Channel{
		cfg:   cfg,
		ratio: cfg.CPUFreqMHz / cfg.BusFreqMHz,
		banks: make([]bank, cfg.Banks),
	}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	return ch
}

// cpuCycles converts DRAM cycles to CPU cycles, rounding up.
func (c *Channel) cpuCycles(dramCycles int64) int64 {
	v := float64(dramCycles) * c.ratio
	n := int64(v)
	if float64(n) < v {
		n++
	}
	return n
}

// mapAddr splits a block address into (bank, row). Consecutive blocks
// fill a row before moving to the next bank (row:bank:column order), so
// streaming accesses enjoy row-buffer hits while random accesses spread
// over banks.
func (c *Channel) mapAddr(blk mem.BlockAddr) (bankIdx int, row int64) {
	blocksPerRow := c.cfg.RowBytes >> mem.BlockBits
	colStripped := uint64(blk) / blocksPerRow
	bankIdx = int(colStripped % uint64(c.cfg.Banks))
	row = int64(colStripped / uint64(c.cfg.Banks))
	return bankIdx, row
}

// Access serves a 64 B transfer for blk arriving at CPU cycle now and
// returns the completion time.
//
// Writes are absorbed by the controller's write buffer and drained
// eagerly off the critical path: they are counted (and they still make
// the target row the open one, modelling drain-time activations) but
// they do not reserve bank or bus time. Without this, write-back
// requests — which the cache model issues at fill-completion
// timestamps, later than the demand clock — would poison the bank
// ready-times for demand reads issued in between, a known artefact of
// call-order timestamp-reservation models.
func (c *Channel) Access(blk mem.BlockAddr, write bool, now int64) int64 {
	bankIdx, row := c.mapAddr(blk)
	b := &c.banks[bankIdx]

	if write {
		c.Stats.Writes++
		if c.agg != nil {
			c.agg.Writes++
		}
		b.openRow = row
		return now
	}

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}

	var cmdCycles int64
	var hit, conflict bool
	switch {
	case b.openRow == row:
		// Row-buffer hit: column access only.
		cmdCycles = c.cfg.TCAS
		c.Stats.RowHits++
		hit = true
	case b.openRow < 0:
		// Bank precharged: activate + column access.
		cmdCycles = c.cfg.TRCD + c.cfg.TCAS
		c.Stats.RowMisses++
	default:
		// Row conflict: precharge + activate + column access.
		cmdCycles = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
		c.Stats.RowMisses++
		c.Stats.RowConflicts++
		conflict = true
	}
	b.openRow = row

	dataStart := start + c.cpuCycles(cmdCycles)
	if c.busFree > dataStart {
		dataStart = c.busFree
	}
	burst := c.cpuCycles(c.cfg.BurstCycles)
	done := dataStart + burst
	c.busFree = done
	b.readyAt = dataStart // next command can overlap the burst
	b.lastUsed = now
	c.Stats.BusyCycles += burst

	c.Stats.Reads++
	c.Stats.TotalServiceLatency += done - now
	if c.tap != nil {
		c.tap.DRAMRead(done-now, hit, conflict)
	}
	if c.agg != nil {
		if hit {
			c.agg.RowHits++
		} else {
			c.agg.RowMisses++
			if conflict {
				c.agg.RowConflicts++
			}
		}
		c.agg.BusyCycles += burst
		c.agg.Reads++
		c.agg.TotalServiceLatency += done - now
	}
	return done
}

// MinLatency returns the unloaded row-hit latency in CPU cycles, i.e.
// the floor any DRAM access pays.
func (c *Channel) MinLatency() int64 {
	return c.cpuCycles(c.cfg.TCAS) + c.cpuCycles(c.cfg.BurstCycles)
}

// SetTap attaches (nil detaches) the flight-recorder read hook.
func (c *Channel) SetTap(t mem.Tap) { c.tap = t }

// BusyBanks counts banks with a command reservation extending past
// time now — the occupancy sampler's bank-pressure signal. Pure read.
func (c *Channel) BusyBanks(now int64) int {
	n := 0
	for i := range c.banks {
		if c.banks[i].readyAt > now {
			n++
		}
	}
	return n
}

// BusBacklog returns how far the data-bus reservation extends past
// time now, in CPU cycles (0 when the bus is free). Pure read.
func (c *Channel) BusBacklog(now int64) int64 {
	if c.busFree > now {
		return c.busFree - now
	}
	return 0
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (c *Channel) RowHitRate() float64 {
	t := c.Stats.RowHits + c.Stats.RowMisses
	if t == 0 {
		return 0
	}
	return float64(c.Stats.RowHits) / float64(t)
}

// AvgReadLatency returns the mean read service latency in CPU cycles.
func (c *Channel) AvgReadLatency() float64 {
	if c.Stats.Reads == 0 {
		return 0
	}
	return float64(c.Stats.TotalServiceLatency) / float64(c.Stats.Reads)
}

// Memory is the memory controller: one or more channels with block
// addresses interleaved across them.
type Memory struct {
	channels []*Channel
	// total is maintained incrementally by the channels (see
	// Channel.agg) so TotalStats stays O(1) under high-frequency epoch
	// sampling regardless of channel/bank geometry.
	total Stats
}

// NewMemory creates n identically configured channels.
func NewMemory(cfg Config, n int) *Memory {
	if n <= 0 {
		panic("dram: need at least one channel")
	}
	m := &Memory{}
	for i := 0; i < n; i++ {
		ch := NewChannel(cfg)
		ch.agg = &m.total
		m.channels = append(m.channels, ch)
	}
	return m
}

// Access routes blk to its channel and serves it.
func (m *Memory) Access(blk mem.BlockAddr, write bool, now int64) int64 {
	return m.channels[uint64(blk)%uint64(len(m.channels))].Access(blk, write, now)
}

// MinLatency returns the unloaded row-hit latency in CPU cycles.
func (m *Memory) MinLatency() int64 { return m.channels[0].MinLatency() }

// Channels exposes the per-channel state for stats reporting.
func (m *Memory) Channels() []*Channel { return m.channels }

// TotalStats returns the incrementally maintained sum over all
// channels in O(1).
func (m *Memory) TotalStats() Stats { return m.total }

// SetTap attaches (nil detaches) the flight-recorder read hook on
// every channel.
func (m *Memory) SetTap(t mem.Tap) {
	for _, c := range m.channels {
		c.SetTap(t)
	}
}

// BusyBanks counts banks across all channels with a command
// reservation extending past time now. Pure read.
func (m *Memory) BusyBanks(now int64) int {
	n := 0
	for _, c := range m.channels {
		n += c.BusyBanks(now)
	}
	return n
}

// BusBacklog returns the largest per-channel data-bus backlog past
// time now, in CPU cycles. Pure read.
func (m *Memory) BusBacklog(now int64) int64 {
	var worst int64
	for _, c := range m.channels {
		if b := c.BusBacklog(now); b > worst {
			worst = b
		}
	}
	return worst
}

// WarmTouch updates the row-buffer state for blk without timing or
// statistics — the functional-warming fast path of the sampling engine
// (internal/sample). It performs exactly the state transition a real
// access would leave behind (the target row becomes the open one) so a
// detailed sample starting after warming sees the row-buffer locality a
// full detailed run would have produced.
func (c *Channel) WarmTouch(blk mem.BlockAddr) {
	bankIdx, row := c.mapAddr(blk)
	c.banks[bankIdx].openRow = row
}

// WarmTouch routes blk to its channel and updates row state only.
func (m *Memory) WarmTouch(blk mem.BlockAddr) {
	m.channels[uint64(blk)%uint64(len(m.channels))].WarmTouch(blk)
}
