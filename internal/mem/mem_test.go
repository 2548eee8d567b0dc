package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrBlockAndPage(t *testing.T) {
	cases := []struct {
		addr  Addr
		block BlockAddr
		page  PageAddr
		off   uint64
	}{
		{0, 0, 0, 0},
		{63, 0, 0, 63},
		{64, 1, 0, 0},
		{4095, 63, 0, 63},
		{4096, 64, 1, 0},
		{0x1234567, 0x48d15, 0x1234, 0x27},
	}
	for _, c := range cases {
		if got := c.addr.Block(); got != c.block {
			t.Errorf("Addr(%#x).Block() = %#x, want %#x", uint64(c.addr), got, c.block)
		}
		if got := c.addr.Page(); got != c.page {
			t.Errorf("Addr(%#x).Page() = %#x, want %#x", uint64(c.addr), got, c.page)
		}
		if got := c.addr.BlockOffset(); got != c.off {
			t.Errorf("Addr(%#x).BlockOffset() = %d, want %d", uint64(c.addr), got, c.off)
		}
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw % (1 << AddrBits))
		b := a.Block()
		// The block's base address must contain a and be block-aligned.
		base := b.Addr()
		return base <= a && uint64(a-base) < BlockSize && base.BlockOffset() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockPageConsistency(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw % (1 << AddrBits))
		return a.Block().Page() == a.Page()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServedByStrings(t *testing.T) {
	for _, s := range []ServedBy{ServedNone, ServedSDC, ServedL1D, ServedL2, ServedLLC, ServedRemote, ServedDRAM} {
		if s.String() == "" {
			t.Errorf("ServedBy(%d) has empty string", s)
		}
	}
	if ServedDRAM.String() != "DRAM" {
		t.Errorf("ServedDRAM.String() = %q", ServedDRAM.String())
	}
}

func TestSpaceDisjointWindows(t *testing.T) {
	s0 := NewSpace(0)
	s1 := NewSpace(1)
	r0 := s0.Alloc("a", 1<<20, 4, ClassRegular)
	r1 := s1.Alloc("a", 1<<20, 4, ClassRegular)
	if r0.Base>>CoreSpaceBits != 0 {
		t.Errorf("core 0 region at %#x outside window", uint64(r0.Base))
	}
	if r1.Base>>CoreSpaceBits != 1 {
		t.Errorf("core 1 region at %#x outside window", uint64(r1.Base))
	}
}

func TestSpaceAllocPageAlignedAndDisjoint(t *testing.T) {
	s := NewSpace(0)
	var regs []*Region
	sizes := []uint64{1, 64, 4096, 4097, 1 << 20, 123456}
	for i, sz := range sizes {
		r := s.Alloc("r", sz, 4, ClassIrregular)
		if uint64(r.Base)%PageSize != 0 {
			t.Errorf("region %d base %#x not page aligned", i, uint64(r.Base))
		}
		regs = append(regs, r)
	}
	for i := 0; i < len(regs); i++ {
		for j := i + 1; j < len(regs); j++ {
			a, b := regs[i], regs[j]
			if a.Base < b.Base+Addr(b.Size) && b.Base < a.Base+Addr(a.Size) {
				t.Errorf("regions %d and %d overlap", i, j)
			}
			// Guard page: no two regions may share a page.
			if a.Base.Page() == (b.Base + Addr(b.Size) - 1).Page() {
				t.Errorf("regions %d and %d share a page", i, j)
			}
		}
	}
}

func TestRegionElemAddr(t *testing.T) {
	s := NewSpace(0)
	r := s.Alloc("prop", 4000, 4, ClassIrregular)
	if got := r.ElemAddr(0); got != r.Base {
		t.Errorf("ElemAddr(0) = %#x, want base", uint64(got))
	}
	if got := r.ElemAddr(10); got != r.Base+40 {
		t.Errorf("ElemAddr(10) = %#x, want base+40", uint64(got))
	}
}

func TestResponseLatency(t *testing.T) {
	r := Response{Ready: 150, Source: ServedDRAM}
	if got := r.Latency(100); got != 50 {
		t.Errorf("Latency = %d, want 50", got)
	}
}
