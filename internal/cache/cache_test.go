package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"graphmem/internal/mem"
)

// smallCfg is a 4-set, 2-way toy cache with 1-cycle latency.
func smallCfg() Config {
	return Config{Name: "T", SizeBytes: 4 * 2 * mem.BlockSize, Ways: 2, Latency: 1}
}

func addrOf(blk mem.BlockAddr) mem.Addr { return blk.Addr() }

func demand(c *Cache, blk mem.BlockAddr, now int64) LookupResult {
	return c.Lookup(blk, addrOf(blk), 4, false, false, now)
}

func fill(c *Cache, blk mem.BlockAddr, ready int64) Victim {
	return c.Fill(blk, addrOf(blk), 4, false, false, ready)
}

func TestConfigSets(t *testing.T) {
	cfg := Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, Latency: 4}
	if got := cfg.Sets(); got != 64 {
		t.Errorf("Sets = %d, want 64", got)
	}
	bad := Config{Name: "X", SizeBytes: 3 * mem.BlockSize, Ways: 1}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two sets")
		}
	}()
	bad.Sets()
}

func TestMissThenFillThenHit(t *testing.T) {
	c := New(smallCfg())
	r := demand(c, 100, 0)
	if r.Hit {
		t.Fatal("cold cache should miss")
	}
	if r.ReadyAt != 1 {
		t.Errorf("miss detection time = %d, want 1 (lookup latency)", r.ReadyAt)
	}
	fill(c, 100, 50)
	r = demand(c, 100, 60)
	if !r.Hit || r.ReadyAt != 61 {
		t.Errorf("hit = %v ready = %d, want hit at 61", r.Hit, r.ReadyAt)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestHitUnderFillWaitsForReadyAt(t *testing.T) {
	c := New(smallCfg())
	demand(c, 100, 0)
	fill(c, 100, 200) // fill completes at 200
	r := demand(c, 100, 50)
	if !r.Hit {
		t.Fatal("in-flight line should hit")
	}
	if r.ReadyAt != 200 {
		t.Errorf("ready = %d, want 200 (fill completion)", r.ReadyAt)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallCfg())
	// Blocks 0, 4, 8 map to set 0 in a 4-set cache.
	fill(c, 0, 0)
	fill(c, 4, 1)
	demand(c, 0, 10) // touch 0: 4 becomes LRU
	v := fill(c, 8, 20)
	if !v.Valid || v.Blk != 4 {
		t.Errorf("victim = %+v, want block 4", v)
	}
	if !c.Probe(0) || !c.Probe(8) || c.Probe(4) {
		t.Error("wrong lines resident after eviction")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := New(smallCfg())
	c.Fill(0, 0, 4, true, false, 0) // write-allocate: dirty
	fill(c, 4, 1)
	v := fill(c, 8, 2)
	if !v.Valid || v.Blk != 0 || !v.Dirty {
		t.Errorf("victim = %+v, want dirty block 0", v)
	}
	if c.Stats.Writebacks != 1 || c.Stats.Evictions != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := New(smallCfg())
	fill(c, 0, 0)
	c.Lookup(0, addrOf(0), 4, true, false, 10)
	if _, dirty := c.ProbeDirty(0); !dirty {
		t.Error("write hit did not dirty the line")
	}
}

func TestProbeDoesNotTouchState(t *testing.T) {
	c := New(smallCfg())
	fill(c, 0, 0)
	fill(c, 4, 1)
	// Probing 0 must not refresh its recency.
	for i := 0; i < 10; i++ {
		c.Probe(0)
	}
	v := fill(c, 8, 2)
	if v.Blk != 0 {
		t.Errorf("victim = %+v; probes must not update LRU", v)
	}
	if c.Stats.Hits != 0 {
		t.Error("probes must not count as hits")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallCfg())
	c.Fill(0, 0, 4, true, false, 0)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want dirty present", present, dirty)
	}
	if c.Probe(0) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Error("double invalidate reported presence")
	}
}

func TestRefillDoesNotDuplicate(t *testing.T) {
	c := New(smallCfg())
	fill(c, 0, 100)
	fill(c, 0, 50) // racing refill with earlier ready time
	n := 0
	c.ForEachValid(func(ln *Line) {
		if ln.Blk == 0 {
			n++
		}
	})
	if n != 1 {
		t.Errorf("block 0 present %d times", n)
	}
	r := demand(c, 0, 60)
	if r.ReadyAt != 61 {
		t.Errorf("refill should take earlier ready time; got %d", r.ReadyAt)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(blocks []uint16) bool {
		c := New(smallCfg())
		for i, b := range blocks {
			blk := mem.BlockAddr(b)
			if r := demand(c, blk, int64(i)); !r.Hit {
				fill(c, blk, int64(i))
			}
		}
		if c.Occupancy() > 8 {
			return false
		}
		// No duplicate blocks.
		seen := map[mem.BlockAddr]bool{}
		ok := true
		c.ForEachValid(func(ln *Line) {
			if seen[ln.Blk] {
				ok = false
			}
			seen[ln.Blk] = true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHitsPlusMissesEqualAccesses(t *testing.T) {
	c := New(smallCfg())
	r := rand.New(rand.NewPCG(1, 2))
	n := 1000
	for i := 0; i < n; i++ {
		blk := mem.BlockAddr(r.IntN(32))
		if res := demand(c, blk, int64(i)); !res.Hit {
			fill(c, blk, int64(i))
		}
	}
	if c.Stats.Accesses() != int64(n) {
		t.Errorf("accesses = %d, want %d", c.Stats.Accesses(), n)
	}
}

// --- Distillation ---

func distillCfg() Config {
	// 2 sets, 4 ways, last way is the WOC.
	return Config{Name: "D", SizeBytes: 2 * 4 * mem.BlockSize, Ways: 4,
		Latency: 1, DistillWOCWays: 1}
}

func TestDistillRetainsUsedWords(t *testing.T) {
	c := New(distillCfg())
	// Fill set 0's three LOC ways (blocks 0,2,4 map to set 0 of 2 sets).
	c.Fill(0, 0, 4, false, false, 0) // uses word 0 only
	fill(c, 2, 1)
	fill(c, 4, 2)
	// Next fill evicts block 0 into the WOC.
	fill(c, 6, 3)
	// Word 0 of block 0 should still hit (WOC), other words must miss.
	r := c.Lookup(0, 0, 4, false, false, 10)
	if !r.Hit || !r.WOCHit {
		t.Errorf("WOC word hit failed: %+v", r)
	}
	r = c.Lookup(0, 32, 4, false, false, 11) // word 8 of block 0: not retained
	if r.Hit {
		t.Error("unused word should miss in WOC")
	}
}

func TestDistillWOCEvictsLRU(t *testing.T) {
	c := New(distillCfg())
	fill(c, 0, 0)
	fill(c, 2, 1)
	fill(c, 4, 2)
	fill(c, 6, 3) // evicts 0 into WOC
	fill(c, 8, 4) // evicts 2 into WOC, displacing 0 (only 1 WOC way)
	if c.Probe(0) {
		t.Error("block 0 should have been displaced from the WOC")
	}
	r := c.Lookup(2, addrOf(2), 4, false, false, 20)
	if !r.Hit || !r.WOCHit {
		t.Error("block 2's used word should hit in WOC")
	}
}

func TestDistillDirtyWordsStayDirty(t *testing.T) {
	c := New(distillCfg())
	c.Fill(0, 0, 4, true, false, 0) // dirty
	fill(c, 2, 1)
	fill(c, 4, 2)
	fill(c, 6, 3) // evicts dirty block 0 into WOC
	if _, dirty := c.ProbeDirty(0); !dirty {
		t.Error("dirty bits lost in distillation")
	}
}

func TestDistillBadConfigPanics(t *testing.T) {
	for _, woc := range []int{2, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for DistillWOCWays %d of 2 ways", woc)
				}
			}()
			New(Config{Name: "bad", SizeBytes: 8 * mem.BlockSize, Ways: 2,
				Latency: 1, DistillWOCWays: woc})
		}()
	}
}

// --- T-OPT ---

type mapOracle map[mem.BlockAddr]uint8

func (m mapOracle) Rank(blk mem.BlockAddr) uint8 {
	if r, ok := m[blk]; ok {
		return r
	}
	return RankDefault
}

func TestTOPTEvictsFurthestNextUse(t *testing.T) {
	oracle := mapOracle{0: 10, 4: 200, 8: 50}
	cfg := smallCfg()
	cfg.Policy = &TOPT{Oracle: oracle}
	c := New(cfg)
	fill(c, 0, 0)
	fill(c, 4, 1)
	v := fill(c, 8, 2)
	if v.Blk != 4 {
		t.Errorf("T-OPT evicted %d, want 4 (furthest next use)", v.Blk)
	}
}

func TestTOPTTieBreaksLRU(t *testing.T) {
	oracle := mapOracle{} // everything RankDefault
	cfg := smallCfg()
	cfg.Policy = &TOPT{Oracle: oracle}
	c := New(cfg)
	fill(c, 0, 0)
	fill(c, 4, 1)
	demand(c, 0, 5)
	v := fill(c, 8, 10)
	if v.Blk != 4 {
		t.Errorf("tie-break evicted %d, want LRU block 4", v.Blk)
	}
}

func TestWordMask(t *testing.T) {
	if got := wordMask(0, 4); got != 0b1 {
		t.Errorf("wordMask(0,4) = %b", got)
	}
	if got := wordMask(4, 4); got != 0b10 {
		t.Errorf("wordMask(4,4) = %b", got)
	}
	if got := wordMask(0, 8); got != 0b11 {
		t.Errorf("wordMask(0,8) = %b", got)
	}
	if got := wordMask(60, 4); got != 0x8000 {
		t.Errorf("wordMask(60,4) = %#x", got)
	}
	// Unaligned 8-byte access spanning words 1-2.
	if got := wordMask(6, 8); got != 0b1110 {
		t.Errorf("wordMask(6,8) = %b", got)
	}
}

// --- MSHR ---

func TestMSHRMerge(t *testing.T) {
	m := NewMSHR(4)
	start := m.Allocate(100, 0)
	if start != 0 {
		t.Errorf("first allocate stalled to %d", start)
	}
	m.Complete(100, 500)
	ready, inflight := m.Lookup(100, 50)
	if !inflight || ready != 500 {
		t.Errorf("Lookup = (%d,%v)", ready, inflight)
	}
	// After completion time, the entry expires.
	if _, inflight := m.Lookup(100, 600); inflight {
		t.Error("entry should expire after fill time")
	}
}

func TestMSHRStallWhenFull(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1, 0)
	m.Complete(1, 100)
	m.Allocate(2, 0)
	m.Complete(2, 200)
	start := m.Allocate(3, 10)
	if start != 100 {
		t.Errorf("full MSHR stalled to %d, want 100 (earliest free)", start)
	}
}

func TestMSHRFreesAfterCompletion(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, 0)
	m.Complete(1, 100)
	// At time 150 the register is free again: no stall.
	if start := m.Allocate(2, 150); start != 150 {
		t.Errorf("allocate after completion stalled to %d", start)
	}
	if m.Outstanding(150) != 1 {
		t.Errorf("outstanding = %d", m.Outstanding(150))
	}
}

func TestMSHRAbandon(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, 0)
	m.Abandon(1)
	if start := m.Allocate(2, 0); start != 0 {
		t.Errorf("abandon did not free the slot: stall to %d", start)
	}
}

func TestMSHRCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero capacity")
		}
	}()
	NewMSHR(0)
}

func TestSRRIPInsertionIsEvictable(t *testing.T) {
	cfg := smallCfg()
	cfg.Policy = SRRIP{}
	c := New(cfg)
	// A line re-referenced between streaming fills keeps RRPV 0 and
	// survives; the streamed-in lines (inserted at RRPV 2) evict each
	// other.
	fill(c, 0, 0)
	fill(c, 4, 1)
	for i := int64(2); i < 6; i++ {
		demand(c, 0, i+5)
		fill(c, mem.BlockAddr(i*4), i+10)
	}
	if !c.Probe(0) {
		t.Error("SRRIP evicted the reused line in favour of streaming lines")
	}
}

func TestSRRIPAgingFindsVictim(t *testing.T) {
	cfg := smallCfg()
	cfg.Policy = SRRIP{}
	c := New(cfg)
	fill(c, 0, 0)
	fill(c, 4, 1)
	demand(c, 0, 2)
	demand(c, 4, 3) // both RRPV 0: aging must still find a victim
	v := fill(c, 8, 4)
	if !v.Valid {
		t.Error("no victim found")
	}
}
