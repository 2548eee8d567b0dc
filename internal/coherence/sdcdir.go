// Package coherence implements the directory support the paper adds for
// the Side Data Caches (Section III-C): the SDCDir, a set-associative
// directory extension that precisely tracks which cores' SDCs hold each
// cache block, with MESI-style states. The conventional cache directory
// is modelled in internal/sim as an idealized full-map probe over the
// private caches (zero-space, LLC-latency), which is standard simulator
// practice; the SDCDir by contrast is modelled structurally because its
// limited capacity causes back-invalidations of SDC lines — an effect
// the paper's hardware budget (128 entries per core) makes real.
//
// Concurrency contract (bound–weave engine, internal/sim/boundweave.go):
// the SDCDir is shared-domain state. Under bound–weave it is read and
// mutated only during the serial weave replay (bwEvDirLookup/DirAdd/
// DirRemove/DirInvalAll events, in deterministic (t, core, seq) order);
// bound-phase goroutines never touch it. Capacity evictions observed
// mid-replay are deferred to the end of the weave by the engine so a
// later event in the same quantum cannot resurrect an evicted entry.
package coherence

import (
	"fmt"
	"math/bits"

	"graphmem/internal/mem"
)

// State is a MESI coherence state as tracked by the SDCDir.
type State uint8

// MESI states. The SDC never holds Exclusive silently upgraded lines in
// this model; writes set Modified directly.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Config sizes the SDCDir.
type Config struct {
	// EntriesPerCore is the per-core entry budget (Table I: 128).
	EntriesPerCore int
	// Ways is the associativity (Table I: 8).
	Ways int
	// Cores is the number of cores (one sharer bit each).
	Cores int
	// Latency is the lookup latency in cycles (Table I: 1).
	Latency int64
}

// DirEntry is one directory slot: the block, its MESI state, the
// sharer bit vector and the LRU stamp.
type DirEntry struct {
	Blk     mem.BlockAddr
	State   State
	Sharers uint64
	Valid   bool
	LRU     int64
}

// EvictFunc is called when a directory replacement pushes out an entry:
// every SDC in sharers must invalidate blk (writing back if dirty).
type EvictFunc func(blk mem.BlockAddr, sharers uint64)

// SDCDir tracks the contents of all SDCs. Entries live in one
// contiguous set-major slab (like internal/cache) so the per-probe way
// scan stays on adjacent host cache lines.
type SDCDir struct {
	cfg     Config
	entries []DirEntry // nsets x ways slab, set-major
	ways    int
	setMask uint64
	clock   int64
	onEvict EvictFunc
	// Stats.
	Lookups, Hits, Evictions int64
}

// New builds the SDCDir; onEvict must invalidate SDC copies when a
// directory entry is replaced (nil is allowed for tests that do not
// care).
func New(cfg Config, onEvict EvictFunc) *SDCDir {
	total := cfg.EntriesPerCore * cfg.Cores
	if cfg.Ways <= 0 || total%cfg.Ways != 0 {
		panic(fmt.Sprintf("coherence: bad SDCDir geometry %d entries %d ways", total, cfg.Ways))
	}
	nsets := total / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic("coherence: SDCDir set count must be a power of two")
	}
	if cfg.Cores > 64 {
		panic("coherence: sharer vector limited to 64 cores")
	}
	return &SDCDir{
		cfg:     cfg,
		entries: make([]DirEntry, nsets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
		onEvict: onEvict,
	}
}

// set returns the ways holding blk's set.
func (d *SDCDir) set(blk mem.BlockAddr) []DirEntry {
	si := int(uint64(blk) & d.setMask)
	return d.entries[si*d.ways : (si+1)*d.ways]
}

// Config returns the directory configuration.
func (d *SDCDir) Config() Config { return d.cfg }

// Latency returns the lookup latency in cycles.
func (d *SDCDir) Latency() int64 { return d.cfg.Latency }

func (d *SDCDir) find(blk mem.BlockAddr) *DirEntry {
	set := d.set(blk)
	for w := range set {
		if set[w].Valid && set[w].Blk == blk {
			return &set[w]
		}
	}
	return nil
}

// Lookup returns the sharer bit vector and state for blk. ok is false
// when no SDC holds the block.
func (d *SDCDir) Lookup(blk mem.BlockAddr) (sharers uint64, state State, ok bool) {
	d.Lookups++
	if e := d.find(blk); e != nil {
		d.clock++
		e.LRU = d.clock
		d.Hits++
		return e.Sharers, e.State, true
	}
	return 0, Invalid, false
}

// Probe returns the sharer bit vector and state for blk without
// touching recency or the Lookups/Hits stats — the invariant checker's
// window into the directory (Lookup would perturb LRU state and break
// the checked-vs-unchecked counter identity).
func (d *SDCDir) Probe(blk mem.BlockAddr) (sharers uint64, state State, ok bool) {
	if e := d.find(blk); e != nil {
		return e.Sharers, e.State, true
	}
	return 0, Invalid, false
}

// AddSharer records that core's SDC now holds blk. exclusiveWrite marks
// a store: the entry goes to Modified with core as the sole sharer (the
// caller must have invalidated other copies). Reads join the sharer set
// (Shared, or Exclusive when alone). A directory replacement may evict
// another entry, triggering onEvict.
func (d *SDCDir) AddSharer(blk mem.BlockAddr, coreID int, exclusiveWrite bool) {
	e := d.find(blk)
	if e == nil {
		e = d.allocate(blk)
	}
	d.clock++
	e.LRU = d.clock
	if exclusiveWrite {
		e.Sharers = 1 << coreID
		e.State = Modified
		return
	}
	e.Sharers |= 1 << coreID
	if e.State == Invalid {
		e.State = Exclusive
	} else if e.State == Exclusive && bits.OnesCount64(e.Sharers) > 1 {
		e.State = Shared
	} else if e.State == Modified && bits.OnesCount64(e.Sharers) > 1 {
		// A read joined a modified line: it was downgraded by the
		// caller's writeback; track as Shared.
		e.State = Shared
	}
}

func (d *SDCDir) allocate(blk mem.BlockAddr) *DirEntry {
	set := d.set(blk)
	way, best := 0, int64(1<<63-1)
	for w := range set {
		if !set[w].Valid {
			way = w
			best = -1
			break
		}
		if set[w].LRU < best {
			best = set[w].LRU
			way = w
		}
	}
	v := &set[way]
	if v.Valid {
		d.Evictions++
		if d.onEvict != nil && v.Sharers != 0 {
			d.onEvict(v.Blk, v.Sharers)
		}
	}
	*v = DirEntry{Blk: blk, State: Invalid, Valid: true}
	return v
}

// RemoveSharer records that core's SDC no longer holds blk (SDC
// eviction). The entry is freed when the last sharer leaves.
func (d *SDCDir) RemoveSharer(blk mem.BlockAddr, coreID int) {
	e := d.find(blk)
	if e == nil {
		return
	}
	e.Sharers &^= 1 << coreID
	if e.Sharers == 0 {
		e.Valid = false
	}
}

// InvalidateAll removes blk from the directory entirely, returning the
// sharers that held it so the caller can invalidate their SDCs (write
// requests from the cache side use this).
func (d *SDCDir) InvalidateAll(blk mem.BlockAddr) (sharers uint64, state State) {
	e := d.find(blk)
	if e == nil {
		return 0, Invalid
	}
	sharers, state = e.Sharers, e.State
	e.Valid = false
	return sharers, state
}

// Occupancy returns the number of valid directory entries.
func (d *SDCDir) Occupancy() int {
	n := 0
	for i := range d.entries {
		if d.entries[i].Valid {
			n++
		}
	}
	return n
}

// ForEach iterates valid entries; used by invariant tests.
func (d *SDCDir) ForEach(fn func(blk mem.BlockAddr, sharers uint64, state State)) {
	for i := range d.entries {
		if e := &d.entries[i]; e.Valid {
			fn(e.Blk, e.Sharers, e.State)
		}
	}
}
