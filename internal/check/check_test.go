package check

import (
	"strings"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/coherence"
	"graphmem/internal/mem"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		err  bool
	}{
		{"off", Off, false},
		{"", Off, false},
		{"oracle", OracleOnly, false},
		{"full", Full, false},
		{"FULL", Off, true},
		{"bogus", Off, true},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	for _, l := range []Level{Off, OracleOnly, Full} {
		back, err := ParseLevel(l.String())
		if err != nil || back != l {
			t.Errorf("round trip %v -> %q -> %v, %v", l, l.String(), back, err)
		}
	}
}

func TestOracleVersionFlow(t *testing.T) {
	k := New(Full)
	blk := mem.BlockAddr(42)

	if v := k.Shadow(blk); v != 1 {
		t.Fatalf("never-stored block at v%d, want v1", v)
	}
	// A load at the default version is clean.
	k.CheckLoad(0, 0x100, blk, mem.ServedDRAM, k.DRAMRead(blk))
	if k.Violations() != 0 {
		t.Fatalf("clean load flagged: %v", k.Details())
	}

	v2 := k.StoreAbsorbed(blk)
	if v2 != 2 || k.Shadow(blk) != 2 {
		t.Fatalf("store bumped to v%d (shadow v%d), want v2", v2, k.Shadow(blk))
	}

	// Serving the old version must be flagged, with provenance intact.
	k.CheckLoad(3, 0xdead, blk, mem.ServedLLC, 1)
	if k.Violations() != 1 {
		t.Fatalf("stale load not flagged")
	}
	d := k.Details()[0]
	if d.Kind != "stale-load" || d.Core != 3 || d.PC != 0xdead || d.Blk != blk {
		t.Fatalf("bad provenance: %+v", d)
	}
	if !strings.Contains(d.String(), "LLC") {
		t.Fatalf("detail lost the serving level: %s", d)
	}

	// Unknown versions are counted, never flagged.
	k.CheckLoad(0, 0, blk, mem.ServedL2, 0)
	if k.Unknowns != 1 || k.Violations() != 1 {
		t.Fatalf("unknown-version load mishandled: unknowns=%d violations=%d", k.Unknowns, k.Violations())
	}

	// DRAM round-trips versions exactly.
	k.DRAMWrite(blk, v2)
	if got := k.DRAMRead(blk); got != v2 {
		t.Fatalf("DRAM read v%d after write-back of v%d", got, v2)
	}
}

func TestDetailCap(t *testing.T) {
	k := New(OracleOnly)
	for i := 0; i < maxDetails*3; i++ {
		k.Violate(Violation{Kind: "stale-load", Blk: mem.BlockAddr(i)})
	}
	if k.Violations() != int64(maxDetails*3) {
		t.Fatalf("count = %d", k.Violations())
	}
	if len(k.Details()) != maxDetails {
		t.Fatalf("details = %d, want capped at %d", len(k.Details()), maxDetails)
	}
	s := k.Summary()
	if s.Violations != int64(maxDetails*3) || len(s.Details) != maxDetails {
		t.Fatalf("summary mismatch: %+v", s)
	}
}

func TestCacheInvariantsCleanAndClockRegression(t *testing.T) {
	k := New(Full)
	c := cache.New(cache.Config{Name: "T", SizeBytes: 4 << 10, Ways: 4, Latency: 1, MSHRs: 4})
	for i := 0; i < 100; i++ {
		blk := mem.BlockAddr(i)
		c.Fill(blk, blk.Addr(), 8, i%3 == 0, false, int64(i))
	}
	k.CheckCache("T", c)
	if k.Violations() != 0 {
		t.Fatalf("healthy cache flagged: %v", k.Details())
	}
	// A rewound clock (impossible in a healthy cache) must be flagged
	// on the next sweep via the remembered high-water mark.
	k.lastClock["T"] = c.Clock() + 1000
	k.CheckCache("T", c)
	if k.Violations() == 0 {
		t.Fatal("clock regression not flagged")
	}
}

func TestMSHRDuplicateBlockFlagged(t *testing.T) {
	k := New(Full)
	c := cache.New(cache.Config{Name: "T", SizeBytes: 4 << 10, Ways: 4, Latency: 1, MSHRs: 4})
	m := c.MSHR()
	m.Complete(1, m.Allocate(1, 0)+50)
	m.Complete(2, m.Allocate(2, 0)+50)
	k.CheckCache("T", c)
	if k.Violations() != 0 {
		t.Fatalf("healthy MSHR flagged: %v", k.Details())
	}
	// Allocating without the Lookup the simulator always does first
	// puts block 1 in two registers.
	m.Allocate(1, 10)
	k.CheckCache("T", c)
	if k.Violations() == 0 {
		t.Fatal("block in two MSHRs not flagged")
	}
}

func TestSDCDirInvariants(t *testing.T) {
	k := New(Full)
	dir := coherence.New(coherence.Config{EntriesPerCore: 16, Ways: 4, Cores: 2, Latency: 1}, nil)
	sdcCfg := cache.Config{Name: "SDC", SizeBytes: 8 << 10, Ways: 2, Latency: 1}
	sdcs := []*cache.Cache{cache.New(sdcCfg), cache.New(sdcCfg)}

	// Consistent state: both sides agree.
	blk := mem.BlockAddr(7)
	sdcs[0].Fill(blk, blk.Addr(), 8, false, false, 0)
	dir.AddSharer(blk, 0, false)
	k.CheckSDCDir(dir, sdcs, nil)
	if k.Violations() != 0 {
		t.Fatalf("consistent dir flagged: %v", k.Details())
	}

	// Presence bit without a copy.
	ghost := mem.BlockAddr(99)
	dir.AddSharer(ghost, 1, false)
	k.CheckSDCDir(dir, sdcs, nil)
	if k.Violations() == 0 {
		t.Fatal("ghost sharer bit not flagged")
	}
	dir.InvalidateAll(ghost)

	// Copy without a presence bit.
	before := k.Violations()
	orphan := mem.BlockAddr(123)
	sdcs[1].Fill(orphan, orphan.Addr(), 8, false, false, 0)
	k.CheckSDCDir(dir, sdcs, nil)
	if k.Violations() == before {
		t.Fatal("untracked SDC copy not flagged")
	}
	sdcs[1].Invalidate(orphan)

	// A dir-tracked block sitting in the hierarchy breaks exclusivity.
	before = k.Violations()
	k.CheckSDCDir(dir, sdcs, func(b mem.BlockAddr) bool { return b == blk })
	if k.Violations() == before {
		t.Fatal("exclusivity breach not flagged")
	}
}
