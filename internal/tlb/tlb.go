// Package tlb models the translation path of Table I: a 64-entry 4-way
// L1 DTLB (1-cycle), a 1536-entry 12-way L2 TLB (8-cycle), and a page
// walker. The walker models page-walk-cache hits for the upper levels of
// the radix tree (a fixed overhead) plus a real memory access for the
// leaf PTE, issued into the cache hierarchy through a callback.
//
// Translation proceeds in parallel with the L1D/SDC lookup (both the
// L1D and the SDC are VIPT, Section III-E), so only TLB misses add
// latency to a memory access: the simulator takes the max of the data
// path and translation path ready times.
package tlb

import (
	"graphmem/internal/mem"
	"graphmem/internal/stats"
)

// Config describes one TLB level.
type Config struct {
	Name    string
	Entries int
	Ways    int
	Latency int64
}

// Entry is one translation slot.
type Entry struct {
	Page  mem.PageAddr
	Valid bool
	LRU   int64
}

// TLB is a set-associative translation buffer with LRU replacement.
// Entries live in one contiguous set-major slab (like internal/cache)
// so the per-access way scan stays on adjacent host cache lines.
type TLB struct {
	cfg     Config
	entries []Entry // nsets x ways slab, set-major
	ways    int
	setMask uint64
	clock   int64
	Stats   stats.CacheStats
}

// New builds a TLB from cfg.
func New(cfg Config) *TLB {
	nsets := cfg.Entries / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("tlb: set count must be a positive power of two")
	}
	return &TLB{
		cfg:     cfg,
		entries: make([]Entry, nsets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
	}
}

// set returns the ways holding page's set.
func (t *TLB) set(page mem.PageAddr) []Entry {
	si := int(uint64(page) & t.setMask)
	return t.entries[si*t.ways : (si+1)*t.ways]
}

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() int64 { return t.cfg.Latency }

// Lookup probes for page's translation, updating recency and stats.
func (t *TLB) Lookup(page mem.PageAddr) bool {
	set := t.set(page)
	for w := range set {
		if set[w].Valid && set[w].Page == page {
			t.clock++
			set[w].LRU = t.clock
			t.Stats.Hits++
			return true
		}
	}
	t.Stats.Misses++
	return false
}

// Fill inserts page's translation, evicting LRU.
func (t *TLB) Fill(page mem.PageAddr) {
	set := t.set(page)
	way, best := 0, int64(1<<63-1)
	for w := range set {
		if !set[w].Valid {
			way = w
			break
		}
		if set[w].LRU < best {
			best = set[w].LRU
			way = w
		}
	}
	t.clock++
	if set[way].Valid {
		t.Stats.Evictions++
	}
	set[way] = Entry{Page: page, Valid: true, LRU: t.clock}
}

// WalkFunc issues the leaf-PTE read at addr into the memory hierarchy at
// CPU cycle now and returns its completion time.
type WalkFunc func(addr mem.Addr, now int64) int64

// Hierarchy is the two-level TLB plus walker for one core.
type Hierarchy struct {
	DTLB *TLB
	STLB *TLB
	// PTBase is the synthetic page-table region base; leaf PTEs live at
	// PTBase + page*8 so walker traffic has realistic locality (512
	// translations per PTE cache line... per page of PTEs).
	PTBase mem.Addr
	// WalkOverhead models page-walk-cache hits for the upper radix
	// levels, in cycles.
	WalkOverhead int64
	// Walk performs the leaf PTE memory access.
	Walk WalkFunc
	// Walks counts completed page walks.
	Walks int64
}

// DefaultHierarchy builds the Table I translation path for one core.
func DefaultHierarchy(ptBase mem.Addr, walk WalkFunc) *Hierarchy {
	return &Hierarchy{
		DTLB:         New(Config{Name: "DTLB", Entries: 64, Ways: 4, Latency: 1}),
		STLB:         New(Config{Name: "STLB", Entries: 1536, Ways: 12, Latency: 8}),
		PTBase:       ptBase,
		WalkOverhead: 4,
		Walk:         walk,
	}
}

// Translate returns the cycle at which the translation of page is
// available, starting the lookup at now, and fills the TLBs on the way
// back.
func (h *Hierarchy) Translate(page mem.PageAddr, now int64) int64 {
	t := now + h.DTLB.Latency()
	if h.DTLB.Lookup(page) {
		return t
	}
	t += h.STLB.Latency()
	if h.STLB.Lookup(page) {
		h.DTLB.Fill(page)
		return t
	}
	// Page walk: fixed upper-level overhead plus a leaf PTE access.
	h.Walks++
	t += h.WalkOverhead
	pteAddr := h.PTBase + mem.Addr(uint64(page)*8)
	t = h.Walk(pteAddr, t)
	h.STLB.Fill(page)
	h.DTLB.Fill(page)
	return t
}

// WarmWalkFunc warm-touches the leaf PTE's block in the hierarchy
// without timing (the warm counterpart of WalkFunc).
type WarmWalkFunc func(addr mem.Addr)

// WarmTranslate is the functional-warming Translate: the same TLB
// lookups and fills, but no latencies and no Walks count (the caller
// freezes the TLB counters across warming, see internal/sim/warm.go).
// warmWalk, when non-nil, receives the leaf PTE address on a full miss
// so the page table's footprint warms the data caches exactly as a
// detailed walk would.
func (h *Hierarchy) WarmTranslate(page mem.PageAddr, warmWalk WarmWalkFunc) {
	if h.DTLB.Lookup(page) {
		return
	}
	if h.STLB.Lookup(page) {
		h.DTLB.Fill(page)
		return
	}
	if warmWalk != nil {
		warmWalk(h.PTBase + mem.Addr(uint64(page)*8))
	}
	h.STLB.Fill(page)
	h.DTLB.Fill(page)
}
