package dram

import (
	"testing"
	"testing/quick"

	"graphmem/internal/mem"
)

func TestCPUCycleConversion(t *testing.T) {
	c := NewChannel(DefaultConfig())
	// ratio = 2166/1466.5 ~ 1.477; 24 DRAM cycles -> ceil(35.45) = 36.
	if got := c.cpuCycles(24); got != 36 {
		t.Errorf("cpuCycles(24) = %d, want 36", got)
	}
	if got := c.cpuCycles(0); got != 0 {
		t.Errorf("cpuCycles(0) = %d", got)
	}
}

func TestNewChannelRejectsRowBytes(t *testing.T) {
	for _, tc := range []struct {
		rowBytes uint64
		panic    string
	}{
		{0, "dram: invalid config"},
		{3, "dram: RowBytes must be a power of two"},
	} {
		cfg := DefaultConfig()
		cfg.RowBytes = tc.rowBytes
		func() {
			defer func() {
				if r := recover(); r != tc.panic {
					t.Errorf("NewChannel(RowBytes %d) panicked with %v, want %q", tc.rowBytes, r, tc.panic)
				}
			}()
			NewChannel(cfg)
		}()
	}
}

func TestMinLatency(t *testing.T) {
	c := NewChannel(DefaultConfig())
	// tCAS (36 CPU cy) + burst (ceil(4*1.477)=6).
	if got := c.MinLatency(); got != 42 {
		t.Errorf("MinLatency = %d, want 42", got)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c := NewChannel(DefaultConfig())
	t0 := c.Access(0, false, 0)
	// Same row, later arrival: should be a row hit and cheaper.
	t1 := c.Access(1, false, t0)
	hitLat := t1 - t0
	// Far block in the same bank, different row: row conflict.
	blocksPerRow := int64(DefaultConfig().RowBytes >> mem.BlockBits)
	banks := int64(DefaultConfig().Banks)
	far := mem.BlockAddr(blocksPerRow * banks * 1000)
	// Verify it maps to bank 0 like block 0.
	if b, _ := c.mapAddr(far); b != 0 {
		t.Fatalf("test bug: far block maps to bank %d", b)
	}
	t2 := c.Access(far, false, t1)
	missLat := t2 - t1
	if hitLat >= missLat {
		t.Errorf("row hit (%d) not faster than row conflict (%d)", hitLat, missLat)
	}
	if c.Stats.RowHits != 1 || c.Stats.RowMisses != 2 || c.Stats.RowConflicts != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestFirstAccessIsActivateNotConflict(t *testing.T) {
	c := NewChannel(DefaultConfig())
	c.Access(0, false, 0)
	if c.Stats.RowConflicts != 0 {
		t.Error("first access should not be a conflict")
	}
	if c.Stats.RowMisses != 1 {
		t.Errorf("RowMisses = %d", c.Stats.RowMisses)
	}
}

func TestBankQueueing(t *testing.T) {
	c := NewChannel(DefaultConfig())
	blocksPerRow := int64(DefaultConfig().RowBytes >> mem.BlockBits)
	banks := int64(DefaultConfig().Banks)
	// Two back-to-back conflicting requests to the same bank, different
	// rows, both arriving at time 0: the second must queue.
	a := mem.BlockAddr(0)
	b := mem.BlockAddr(blocksPerRow * banks)
	tA := c.Access(a, false, 0)
	tB := c.Access(b, false, 0)
	if tB <= tA {
		t.Errorf("queued conflicting request finished at %d, first at %d", tB, tA)
	}
}

func TestBankParallelism(t *testing.T) {
	c := NewChannel(DefaultConfig())
	blocksPerRow := int64(DefaultConfig().RowBytes >> mem.BlockBits)
	// Same arrival, different banks: completion should be much closer
	// than serial execution because only the burst serializes.
	t0 := c.Access(0, false, 0)
	t1 := c.Access(mem.BlockAddr(blocksPerRow), false, 0) // bank 1
	serial := 2 * t0
	if t1 >= serial {
		t.Errorf("bank-parallel access took %d, serial would be %d", t1, serial)
	}
	burst := c.cpuCycles(DefaultConfig().BurstCycles)
	if t1 != t0+burst {
		t.Errorf("second bank completion %d, want %d (bus-serialized)", t1, t0+burst)
	}
}

func TestDataBusSerializesRowHits(t *testing.T) {
	c := NewChannel(DefaultConfig())
	burst := c.cpuCycles(DefaultConfig().BurstCycles)
	t0 := c.Access(0, false, 0)
	t1 := c.Access(1, false, 0) // row hit, same arrival
	if t1-t0 < burst {
		t.Errorf("bursts overlap: %d then %d", t0, t1)
	}
}

func TestWriteStats(t *testing.T) {
	c := NewChannel(DefaultConfig())
	c.Access(0, true, 0)
	c.Access(1, false, 100)
	if c.Stats.Writes != 1 || c.Stats.Reads != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if c.Stats.TotalServiceLatency <= 0 {
		t.Error("read latency not accumulated")
	}
}

func TestRowHitRateAndAvgLatency(t *testing.T) {
	c := NewChannel(DefaultConfig())
	now := int64(0)
	for i := 0; i < 10; i++ {
		now = c.Access(mem.BlockAddr(i), false, now)
	}
	if got := c.RowHitRate(); got != 0.9 {
		t.Errorf("RowHitRate = %g, want 0.9", got)
	}
	if c.AvgReadLatency() <= 0 {
		t.Error("AvgReadLatency should be positive")
	}
}

func TestCompletionMonotoneWithArrival(t *testing.T) {
	// Later arrival never completes earlier, for any address pattern.
	f := func(blocks []uint32) bool {
		c := NewChannel(DefaultConfig())
		var lastDone, now int64
		for _, b := range blocks {
			done := c.Access(mem.BlockAddr(b), false, now)
			if done < now {
				return false
			}
			if done < lastDone {
				// Bus serialization must keep completions ordered for
				// non-decreasing arrivals.
				return false
			}
			lastDone = done
			now += 3
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemoryChannelInterleave(t *testing.T) {
	m := NewMemory(DefaultConfig(), 2)
	m.Access(0, false, 0) // channel 0
	m.Access(1, false, 0) // channel 1
	m.Access(2, false, 0) // channel 0
	chans := m.Channels()
	if chans[0].Stats.Reads != 2 || chans[1].Stats.Reads != 1 {
		t.Errorf("channel reads: %d, %d", chans[0].Stats.Reads, chans[1].Stats.Reads)
	}
	ts := m.TotalStats()
	if ts.Reads != 3 {
		t.Errorf("TotalStats.Reads = %d", ts.Reads)
	}
}

func TestStreamingEnjoysRowHits(t *testing.T) {
	c := NewChannel(DefaultConfig())
	now := int64(0)
	n := 1000
	for i := 0; i < n; i++ {
		done := c.Access(mem.BlockAddr(i), false, now)
		now = done + 10
	}
	if c.RowHitRate() < 0.95 {
		t.Errorf("streaming row hit rate %.2f too low", c.RowHitRate())
	}
}

func TestRandomPatternMissesRows(t *testing.T) {
	c := NewChannel(DefaultConfig())
	now := int64(0)
	// Jump a prime stride large enough to change rows every access.
	blk := mem.BlockAddr(0)
	for i := 0; i < 1000; i++ {
		blk += 104729 // prime > blocksPerRow*banks
		done := c.Access(blk, false, now)
		now = done + 10
	}
	if c.RowHitRate() > 0.2 {
		t.Errorf("random row hit rate %.2f too high", c.RowHitRate())
	}
}
