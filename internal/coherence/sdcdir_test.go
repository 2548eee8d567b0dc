package coherence

import (
	"math/bits"
	"testing"
	"testing/quick"

	"graphmem/internal/mem"
)

func newDir(cores int) *SDCDir {
	return New(Config{EntriesPerCore: 128, Ways: 8, Cores: cores, Latency: 1}, nil)
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("State %d = %q", s, s.String())
		}
	}
}

func TestLookupMissOnEmpty(t *testing.T) {
	d := newDir(4)
	if _, _, ok := d.Lookup(42); ok {
		t.Error("empty directory reported a sharer")
	}
	if d.Lookups != 1 || d.Hits != 0 {
		t.Errorf("stats: lookups=%d hits=%d", d.Lookups, d.Hits)
	}
}

func TestAddSharerReadPath(t *testing.T) {
	d := newDir(4)
	d.AddSharer(42, 2, false)
	sharers, state, ok := d.Lookup(42)
	if !ok || sharers != 1<<2 || state != Exclusive {
		t.Errorf("got sharers=%b state=%v ok=%v", sharers, state, ok)
	}
	// Second reader: Shared.
	d.AddSharer(42, 0, false)
	sharers, state, _ = d.Lookup(42)
	if sharers != 0b101 || state != Shared {
		t.Errorf("after 2nd reader: sharers=%b state=%v", sharers, state)
	}
}

func TestAddSharerWritePath(t *testing.T) {
	d := newDir(4)
	d.AddSharer(42, 0, false)
	d.AddSharer(42, 1, false)
	// Core 3 writes: sole Modified owner.
	d.AddSharer(42, 3, true)
	sharers, state, _ := d.Lookup(42)
	if sharers != 1<<3 || state != Modified {
		t.Errorf("after write: sharers=%b state=%v", sharers, state)
	}
}

func TestRemoveSharerFreesEntry(t *testing.T) {
	d := newDir(4)
	d.AddSharer(7, 0, false)
	d.AddSharer(7, 1, false)
	d.RemoveSharer(7, 0)
	if sharers, _, ok := d.Lookup(7); !ok || sharers != 1<<1 {
		t.Errorf("sharers=%b ok=%v", sharers, ok)
	}
	d.RemoveSharer(7, 1)
	if _, _, ok := d.Lookup(7); ok {
		t.Error("entry should be freed when last sharer leaves")
	}
	// Removing from an absent entry is a no-op.
	d.RemoveSharer(7, 1)
}

func TestInvalidateAll(t *testing.T) {
	d := newDir(4)
	d.AddSharer(9, 0, false)
	d.AddSharer(9, 2, false)
	sharers, state := d.InvalidateAll(9)
	if sharers != 0b101 || state != Shared {
		t.Errorf("InvalidateAll = (%b, %v)", sharers, state)
	}
	if _, _, ok := d.Lookup(9); ok {
		t.Error("entry survived InvalidateAll")
	}
	if s, _ := d.InvalidateAll(9); s != 0 {
		t.Error("second InvalidateAll returned sharers")
	}
}

func TestCapacityEvictionTriggersCallback(t *testing.T) {
	var evicted []mem.BlockAddr
	cfg := Config{EntriesPerCore: 16, Ways: 2, Cores: 1, Latency: 1}
	d := New(cfg, func(blk mem.BlockAddr, sharers uint64) {
		evicted = append(evicted, blk)
		if sharers == 0 {
			t.Error("evict callback with no sharers")
		}
	})
	// 8 sets x 2 ways; blocks i*8 all map to set 0.
	for i := 0; i < 3; i++ {
		d.AddSharer(mem.BlockAddr(i*8), 0, false)
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Errorf("evicted = %v, want [0] (LRU)", evicted)
	}
	if d.Evictions != 1 {
		t.Errorf("Evictions = %d", d.Evictions)
	}
}

func TestEvictionPrefersLRU(t *testing.T) {
	var evicted []mem.BlockAddr
	cfg := Config{EntriesPerCore: 16, Ways: 2, Cores: 1, Latency: 1}
	d := New(cfg, func(blk mem.BlockAddr, _ uint64) { evicted = append(evicted, blk) })
	d.AddSharer(0, 0, false)
	d.AddSharer(8, 0, false)
	d.Lookup(0) // refresh 0
	d.AddSharer(16, 0, false)
	if len(evicted) != 1 || evicted[0] != 8 {
		t.Errorf("evicted = %v, want [8]", evicted)
	}
}

func TestOccupancyAndForEach(t *testing.T) {
	d := newDir(2)
	d.AddSharer(1, 0, false)
	d.AddSharer(2, 1, true)
	if d.Occupancy() != 2 {
		t.Errorf("occupancy = %d", d.Occupancy())
	}
	seen := map[mem.BlockAddr]State{}
	d.ForEach(func(blk mem.BlockAddr, sharers uint64, state State) {
		seen[blk] = state
	})
	if seen[1] != Exclusive || seen[2] != Modified {
		t.Errorf("ForEach states = %v", seen)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{EntriesPerCore: 10, Ways: 4, Cores: 1},   // 10 entries not divisible
		{EntriesPerCore: 24, Ways: 2, Cores: 1},   // 12 sets: not pow2
		{EntriesPerCore: 128, Ways: 8, Cores: 65}, // too many cores
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, nil)
		}()
	}
}

// Invariant: a Modified entry always has exactly one sharer; sharer
// vectors only use bits < Cores when callers behave.
func TestModifiedSingleSharerInvariant(t *testing.T) {
	type op struct {
		Blk   uint8
		Core  uint8
		Write bool
		Del   bool
	}
	f := func(ops []op) bool {
		d := newDir(4)
		for _, o := range ops {
			blk := mem.BlockAddr(o.Blk)
			coreID := int(o.Core % 4)
			switch {
			case o.Del:
				d.RemoveSharer(blk, coreID)
			default:
				d.AddSharer(blk, coreID, o.Write)
			}
		}
		ok := true
		d.ForEach(func(blk mem.BlockAddr, sharers uint64, state State) {
			if sharers == 0 {
				ok = false
			}
			if state == Modified && bits.OnesCount64(sharers) != 1 {
				ok = false
			}
			if sharers>>4 != 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
