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
	"encoding/binary"
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

// DefaultConfig returns the Table I SDCDir configuration for n cores.
func DefaultConfig(n int) Config {
	return Config{EntriesPerCore: 128, Ways: 8, Cores: n, Latency: 1}
}

type dirEntry struct {
	blk     mem.BlockAddr
	state   State
	sharers uint64
	valid   bool
	lru     int64
}

// EvictFunc is called when a directory replacement pushes out an entry:
// every SDC in sharers must invalidate blk (writing back if dirty).
type EvictFunc func(blk mem.BlockAddr, sharers uint64)

// SDCDir tracks the contents of all SDCs. Entries live in one
// contiguous set-major slab (like internal/cache) so the per-probe way
// scan stays on adjacent host cache lines.
type SDCDir struct {
	cfg     Config
	entries []dirEntry // nsets x ways slab, set-major
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
		entries: make([]dirEntry, nsets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
		onEvict: onEvict,
	}
}

// set returns the ways holding blk's set.
func (d *SDCDir) set(blk mem.BlockAddr) []dirEntry {
	si := int(uint64(blk) & d.setMask)
	return d.entries[si*d.ways : (si+1)*d.ways]
}

// Config returns the directory configuration.
func (d *SDCDir) Config() Config { return d.cfg }

// Latency returns the lookup latency in cycles.
func (d *SDCDir) Latency() int64 { return d.cfg.Latency }

func (d *SDCDir) find(blk mem.BlockAddr) *dirEntry {
	set := d.set(blk)
	for w := range set {
		if set[w].valid && set[w].blk == blk {
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
		e.lru = d.clock
		d.Hits++
		return e.sharers, e.state, true
	}
	return 0, Invalid, false
}

// Probe returns the sharer bit vector and state for blk without
// touching recency or the Lookups/Hits stats — the invariant checker's
// window into the directory (Lookup would perturb LRU state and break
// the checked-vs-unchecked counter identity).
func (d *SDCDir) Probe(blk mem.BlockAddr) (sharers uint64, state State, ok bool) {
	if e := d.find(blk); e != nil {
		return e.sharers, e.state, true
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
	e.lru = d.clock
	if exclusiveWrite {
		e.sharers = 1 << coreID
		e.state = Modified
		return
	}
	e.sharers |= 1 << coreID
	if e.state == Invalid {
		e.state = Exclusive
	} else if e.state == Exclusive && bits.OnesCount64(e.sharers) > 1 {
		e.state = Shared
	} else if e.state == Modified && bits.OnesCount64(e.sharers) > 1 {
		// A read joined a modified line: it was downgraded by the
		// caller's writeback; track as Shared.
		e.state = Shared
	}
}

func (d *SDCDir) allocate(blk mem.BlockAddr) *dirEntry {
	set := d.set(blk)
	way, best := 0, int64(1<<63-1)
	for w := range set {
		if !set[w].valid {
			way = w
			best = -1
			break
		}
		if set[w].lru < best {
			best = set[w].lru
			way = w
		}
	}
	v := &set[way]
	if v.valid {
		d.Evictions++
		if d.onEvict != nil && v.sharers != 0 {
			d.onEvict(v.blk, v.sharers)
		}
	}
	*v = dirEntry{blk: blk, state: Invalid, valid: true}
	return v
}

// RemoveSharer records that core's SDC no longer holds blk (SDC
// eviction). The entry is freed when the last sharer leaves.
func (d *SDCDir) RemoveSharer(blk mem.BlockAddr, coreID int) {
	e := d.find(blk)
	if e == nil {
		return
	}
	e.sharers &^= 1 << coreID
	if e.sharers == 0 {
		e.valid = false
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
	sharers, state = e.sharers, e.state
	e.valid = false
	return sharers, state
}

// Occupancy returns the number of valid directory entries.
func (d *SDCDir) Occupancy() int {
	n := 0
	for i := range d.entries {
		if d.entries[i].valid {
			n++
		}
	}
	return n
}

// ForEach iterates valid entries; used by invariant tests.
func (d *SDCDir) ForEach(fn func(blk mem.BlockAddr, sharers uint64, state State)) {
	for i := range d.entries {
		if e := &d.entries[i]; e.valid {
			fn(e.blk, e.sharers, e.state)
		}
	}
}

// EncodeState appends the directory's clock and every entry to buf.
func (d *SDCDir) EncodeState(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.entries)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.clock))
	for i := range d.entries {
		e := &d.entries[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.blk))
		buf = append(buf, byte(e.state))
		buf = binary.LittleEndian.AppendUint64(buf, e.sharers)
		if e.valid {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.lru))
	}
	return buf
}

// DecodeState restores state written by EncodeState, rejecting a
// geometry mismatch, and returns the remaining bytes.
func (d *SDCDir) DecodeState(data []byte) ([]byte, error) {
	if len(data) < 4+8 {
		return nil, fmt.Errorf("coherence: SDCDir checkpoint truncated")
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n != len(d.entries) {
		return nil, fmt.Errorf("coherence: SDCDir checkpoint geometry mismatch: %d entries, have %d", n, len(d.entries))
	}
	d.clock = int64(binary.LittleEndian.Uint64(data[4:]))
	data = data[12:]
	const entryBytes = 8 + 1 + 8 + 1 + 8
	if len(data) < n*entryBytes {
		return nil, fmt.Errorf("coherence: SDCDir checkpoint truncated")
	}
	for i := range d.entries {
		e := &d.entries[i]
		e.blk = mem.BlockAddr(binary.LittleEndian.Uint64(data))
		e.state = State(data[8])
		e.sharers = binary.LittleEndian.Uint64(data[9:])
		e.valid = data[17] != 0
		e.lru = int64(binary.LittleEndian.Uint64(data[18:]))
		data = data[entryBytes:]
	}
	return data, nil
}
