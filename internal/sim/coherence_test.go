package sim

import (
	"math/rand/v2"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/mem"
)

// cohSystem builds a 2-core SDC+LP machine with no workloads, for
// driving the memory paths directly.
func cohSystem(t *testing.T) *System {
	t.Helper()
	cfg := TableI(2).BenchScale().WithSDCLP()
	return NewSystem(cfg, make([]Workload, 2))
}

// sdcRead/sdcWrite push an access down the SDC path of core i.
func sdcRead(s *System, coreID int, blk mem.BlockAddr, now int64) mem.Response {
	c := s.cores[coreID]
	return c.sdcAccess(blk, blk.Addr(), 4, false, now)
}

func sdcWrite(s *System, coreID int, blk mem.BlockAddr, now int64) mem.Response {
	c := s.cores[coreID]
	return c.sdcAccess(blk, blk.Addr(), 4, true, now)
}

func TestSDCReadFillsAndTracks(t *testing.T) {
	s := cohSystem(t)
	resp := sdcRead(s, 0, 100, 0)
	if resp.Source != mem.ServedDRAM {
		t.Errorf("cold SDC read served by %v", resp.Source)
	}
	if !s.cores[0].sdc.Probe(100) {
		t.Error("block not filled into SDC")
	}
	sharers, _, ok := s.sdcDir.Lookup(100)
	if !ok || sharers != 1 {
		t.Errorf("SDCDir sharers = %b, ok=%v", sharers, ok)
	}
	// Second read hits locally.
	resp = sdcRead(s, 0, 100, 1000)
	if resp.Source != mem.ServedSDC {
		t.Errorf("warm SDC read served by %v", resp.Source)
	}
}

func TestCrossSDCReadSharing(t *testing.T) {
	s := cohSystem(t)
	sdcRead(s, 0, 100, 0)
	resp := sdcRead(s, 1, 100, 1000)
	if resp.Source != mem.ServedRemote {
		t.Errorf("remote SDC copy served by %v, want remote transfer", resp.Source)
	}
	sharers, state, _ := s.sdcDir.Lookup(100)
	if sharers != 0b11 {
		t.Errorf("sharers = %b, want both cores", sharers)
	}
	_ = state
	if !s.cores[1].sdc.Probe(100) {
		t.Error("reader's SDC not filled")
	}
}

func TestSDCWriteInvalidatesRemoteCopies(t *testing.T) {
	s := cohSystem(t)
	sdcRead(s, 0, 100, 0)
	sdcRead(s, 1, 100, 1000)
	// Core 1 writes: core 0's copy must die; core 1 owns Modified.
	sdcWrite(s, 1, 100, 2000)
	if s.cores[0].sdc.Probe(100) {
		t.Error("writer did not invalidate the remote SDC copy")
	}
	sharers, state, ok := s.sdcDir.Lookup(100)
	if !ok || sharers != 0b10 {
		t.Errorf("sharers = %b after write", sharers)
	}
	if state.String() != "M" {
		t.Errorf("state = %v, want Modified", state)
	}
}

func TestDirtySDCDataReachesDRAMOnRemoteWrite(t *testing.T) {
	s := cohSystem(t)
	sdcWrite(s, 0, 100, 0) // dirty in SDC0
	before := s.dram.TotalStats().Writes
	sdcWrite(s, 1, 100, 1000) // invalidates dirty copy -> DRAM write-back
	if got := s.dram.TotalStats().Writes - before; got == 0 {
		t.Error("dirty remote copy was not written back")
	}
}

func TestL1PathPullsBlockOutOfOwnSDC(t *testing.T) {
	s := cohSystem(t)
	sdcWrite(s, 0, 100, 0) // dirty in SDC
	c := s.cores[0]
	resp := c.l1Access(100, mem.Addr(100<<6), 4, false, 1000)
	if resp.Source != mem.ServedSDC {
		t.Errorf("friendly access to SDC-resident block served by %v", resp.Source)
	}
	if c.sdc.Probe(100) {
		t.Error("block still in SDC after transfer to L1")
	}
	if !c.l1d.Probe(100) {
		t.Error("block not in L1D after transfer")
	}
	if _, dirty := c.l1d.ProbeDirty(100); !dirty {
		t.Error("dirtiness lost moving SDC -> L1D")
	}
	if sharers, _, ok := s.sdcDir.Lookup(100); ok && sharers != 0 {
		t.Errorf("SDCDir still tracks %b after transfer", sharers)
	}
}

func TestLLCMissPullsBlockOutOfRemoteSDC(t *testing.T) {
	s := cohSystem(t)
	sdcWrite(s, 1, 100, 0) // dirty in core 1's SDC
	before := s.dram.TotalStats().Writes
	// Core 0 demands the block through the conventional path; the LLC
	// miss must find it via the SDCDir and invalidate it.
	c := s.cores[0]
	resp := c.l1Access(100, mem.Addr(100<<6), 4, false, 1000)
	if resp.Source == mem.ServedDRAM {
		t.Error("LLC miss went to DRAM despite a valid SDC copy")
	}
	if s.cores[1].sdc.Probe(100) {
		t.Error("remote SDC copy survived hierarchy demand")
	}
	if s.dram.TotalStats().Writes == before {
		t.Error("dirty SDC copy not written back on hierarchy demand")
	}
}

func TestSDCVictimWritebackAndDirCleanup(t *testing.T) {
	s := cohSystem(t)
	c := s.cores[0]
	// Fill one SDC set past capacity with dirty lines. Bench SDC is
	// 4 KiB 2-way = 32 sets; blocks k*32 share set 0.
	sets := int64(c.sdc.Config().Sets())
	before := s.dram.TotalStats().Writes
	for k := int64(0); k < 4; k++ {
		sdcWrite(s, 0, mem.BlockAddr(k*sets), int64(k)*1000)
	}
	if got := s.dram.TotalStats().Writes - before; got < 2 {
		t.Errorf("expected dirty victims written back, got %d writes", got)
	}
	// Evicted blocks must not linger in the SDCDir as sharers.
	if sharers, _, ok := s.sdcDir.Lookup(0); ok && sharers != 0 {
		t.Error("evicted block still tracked in SDCDir")
	}
}

// TestSDCDirPrecisionInvariant checks Section III-C's "precise
// information" property: any block present in an SDC is tracked by the
// SDCDir with that core's sharer bit set.
func TestSDCDirPrecisionInvariant(t *testing.T) {
	s := cohSystem(t)
	r := rand.New(rand.NewPCG(1, 2))
	now := int64(0)
	for op := 0; op < 5000; op++ {
		coreID := r.IntN(2)
		blk := mem.BlockAddr(r.IntN(256))
		now += 10
		switch r.IntN(4) {
		case 0:
			sdcWrite(s, coreID, blk, now)
		case 1, 2:
			sdcRead(s, coreID, blk, now)
		default:
			c := s.cores[coreID]
			c.l1Access(blk, blk.Addr(), 4, r.IntN(2) == 0, now)
		}
	}
	for i, c := range s.cores {
		var violations int
		c.sdc.ForEachValid(func(ln *cache.Line) {
			sharers, _, ok := s.sdcDir.Lookup(ln.Blk)
			if !ok || sharers&(1<<i) == 0 {
				violations++
			}
		})
		if violations > 0 {
			t.Errorf("core %d: %d SDC lines untracked by SDCDir", i, violations)
		}
	}
}

// TestSDCSurrender pins the one definition of "the SDC domain gives the
// block up" (System.surrenderSDCs) through every routing path that
// calls it, one row per form: dirty data written back at the request's
// time, written back at the owner's clock (the directory's own
// eviction hook), or moving with the block. Under the oracle the
// version DRAM ends up holding tells the forms apart: a write-back
// carries the surrendered copy's version down, a move leaves DRAM at
// its initial version 1.
func TestSDCSurrender(t *testing.T) {
	const blk = mem.BlockAddr(100)
	l1Read := func(s *System, coreID int) {
		s.cores[coreID].l1Access(blk, blk.Addr(), 4, false, 1000)
	}
	cases := []struct {
		name    string
		setup   func(s *System) // leaves the copies to be surrendered
		act     func(s *System)
		gone    []int  // cores whose SDC copy must be invalidated
		writes  int64  // DRAM write-backs the surrender posts
		dramVer uint64 // version DRAM holds afterwards
		sharers uint64 // directory entry afterwards; noDir: the caller keeps it
	}{
		{"remote write: write-back at t, then re-owned",
			func(s *System) { sdcWrite(s, 0, blk, 0) },
			func(s *System) { sdcWrite(s, 1, blk, 1000) },
			[]int{0}, 1, 2, 0b10},
		{"LLC demand: write-back at t, entry dropped",
			func(s *System) { sdcWrite(s, 1, blk, 0) },
			func(s *System) { l1Read(s, 0) },
			[]int{1}, 1, 2, 0},
		{"own L1 pull: data moves, entry dropped",
			func(s *System) { sdcWrite(s, 0, blk, 0) },
			func(s *System) { l1Read(s, 0) },
			[]int{0}, 0, 1, 0},
		{"write upgrade: the other sharer's clean copy dies, entry re-owned",
			func(s *System) { sdcRead(s, 0, blk, 0); sdcRead(s, 1, blk, 500) },
			func(s *System) { sdcWrite(s, 1, blk, 1000) },
			[]int{0}, 0, 1, 0b10},
		{"directory eviction: write-back at the owner's clock",
			func(s *System) { sdcWrite(s, 0, blk, 0); sdcRead(s, 1, blk, 500) },
			func(s *System) { s.onSDCDirEvict(blk, 0b11) },
			[]int{0, 1}, 1, 2, noDir},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(TableI(2).BenchScale().WithSDCLP().WithCheck(check.OracleOnly), make([]Workload, 2))
			tc.setup(s)
			before := s.dram.TotalStats().Writes
			tc.act(s)
			for _, i := range tc.gone {
				if s.cores[i].sdc.Probe(blk) {
					t.Errorf("core %d's SDC copy survived", i)
				}
			}
			if got := s.dram.TotalStats().Writes - before; got != tc.writes {
				t.Errorf("%d DRAM write-backs, want %d", got, tc.writes)
			}
			if got := s.chk.DRAMRead(blk); got != tc.dramVer {
				t.Errorf("DRAM holds version %d, want %d", got, tc.dramVer)
			}
			if sharers, _, _ := s.sdcDir.Probe(blk); tc.sharers != noDir && sharers != tc.sharers {
				t.Errorf("directory tracks sharers %b, want %b", sharers, tc.sharers)
			}
			if v := s.chk.Summary().Violations; v != 0 {
				t.Errorf("%d oracle violations: %v", v, s.chk.Details())
			}
		})
	}
}

// noDir marks a TestSDCSurrender row whose directory entry is not the
// surrender's business.
const noDir = ^uint64(0)
