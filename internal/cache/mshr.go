package cache

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphmem/internal/mem"
)

// mshrEntry is one outstanding miss: the block and its fill-ready time.
type mshrEntry struct {
	blk   mem.BlockAddr
	ready int64
}

// MSHR models a cache's Miss Status Holding Registers with the two
// effects that matter for timing: (i) a demand access to a block whose
// miss is already outstanding merges into it and completes when the
// fill does; (ii) when all registers are busy, a new miss stalls until
// the earliest outstanding fill completes.
//
// The register file is a small fixed-capacity array scanned linearly:
// capacities are 10-64 entries (Table I), so a contiguous scan beats a
// map by a wide margin on the per-record hot path and allocates
// nothing after construction. Ready-time ties on eviction are broken
// by insertion order (oldest allocation first), which is deterministic
// run-to-run.
//
// Two invariants keep the scans short:
//
//   - minReady is a lower bound on every entry's ready time, so purge
//     returns without scanning while now < minReady — the common case:
//     Allocate and Outstanding purge on every call, yet fills expire
//     tens to hundreds of cycles apart. Complete lowers the bound, a
//     scanning purge recomputes it exactly, and removals may leave it
//     stale-low, which costs one scan and never a wrong answer.
//   - a block occupies at most one register: callers Allocate only
//     after a Lookup that reported no outstanding miss, Complete
//     appends only when the block is absent, and decodeState rejects a
//     payload that names a block twice. find may therefore search
//     newest-first — the entry Complete and Lookup almost always want —
//     and return the same index an oldest-first search would. ForEach
//     lets the invariant checker (internal/check) hold callers to it.
type MSHR struct {
	cap      int
	entries  []mshrEntry
	minReady int64
	// tap, when non-nil, receives allocation/stall telemetry for the
	// flight recorder; level identifies the owning cache. Both are set
	// by Cache.SetTap for the measurement window only, so the disabled
	// cost is one interface nil-check per Allocate.
	tap   mem.Tap
	level mem.ServedBy
}

// NewMSHR creates an MSHR file with capacity slots.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHR{cap: capacity, entries: make([]mshrEntry, 0, capacity), minReady: math.MaxInt64}
}

// Capacity returns the number of registers.
func (m *MSHR) Capacity() int { return m.cap }

// SetTap attaches (or, with a nil tap, detaches) the flight-recorder
// hook, tagging its events with the owning cache's serving level.
func (m *MSHR) SetTap(t mem.Tap, level mem.ServedBy) {
	m.tap = t
	m.level = level
}

// InFlight counts entries whose fills are still outstanding at time
// now. Unlike Outstanding it never mutates state, so the occupancy
// sampler can call it at any timestamp without perturbing the run.
func (m *MSHR) InFlight(now int64) int {
	n := 0
	for i := range m.entries {
		if m.entries[i].ready > now {
			n++
		}
	}
	return n
}

// Len returns the number of allocated entries, including ones whose
// fills have completed but have not been purged yet. Unlike Outstanding
// it never mutates state, so invariant sweeps can call it freely;
// Allocate guarantees Len never exceeds Capacity.
func (m *MSHR) Len() int { return len(m.entries) }

// ForEach calls fn for every allocated entry, oldest first, without
// mutating state.
func (m *MSHR) ForEach(fn func(blk mem.BlockAddr, ready int64)) {
	for _, e := range m.entries {
		fn(e.blk, e.ready)
	}
}

// find returns the index of blk's entry, -1 when absent. It searches
// newest-first; see the uniqueness invariant on MSHR.
func (m *MSHR) find(blk mem.BlockAddr) int {
	for i := len(m.entries) - 1; i >= 0; i-- {
		if m.entries[i].blk == blk {
			return i
		}
	}
	return -1
}

// remove drops the entry at index i, preserving the insertion order of
// the rest (the deterministic tie-break order).
func (m *MSHR) remove(i int) {
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
}

// Pending reports whether blk currently occupies a register, without
// the purge side effect of Lookup.
func (m *MSHR) Pending(blk mem.BlockAddr) bool {
	return m.find(blk) >= 0
}

// purge drops entries whose fills completed at or before now.
func (m *MSHR) purge(now int64) {
	if now < m.minReady {
		return // every fill is still outstanding
	}
	out := m.entries[:0]
	minReady := int64(math.MaxInt64)
	for _, e := range m.entries {
		if e.ready > now {
			out = append(out, e)
			if e.ready < minReady {
				minReady = e.ready
			}
		}
	}
	m.entries = out
	m.minReady = minReady
}

// Outstanding returns the number of in-flight misses at time now.
func (m *MSHR) Outstanding(now int64) int {
	m.purge(now)
	return len(m.entries)
}

// Lookup reports whether blk has an outstanding miss at time now and,
// if so, when its fill completes (merge case).
func (m *MSHR) Lookup(blk mem.BlockAddr, now int64) (ready int64, inflight bool) {
	i := m.find(blk)
	if i < 0 {
		return 0, false
	}
	ready = m.entries[i].ready
	if ready <= now {
		m.remove(i)
		return 0, false
	}
	return ready, true
}

// Allocate reserves a register for a miss on blk issued at time now,
// returning the (possibly delayed) time at which the miss can actually
// be sent downstream: if every register is busy the caller stalls until
// the earliest outstanding fill frees one.
func (m *MSHR) Allocate(blk mem.BlockAddr, now int64) int64 {
	m.purge(now)
	start := now
	for len(m.entries) >= m.cap {
		victim, earliest := 0, m.entries[0].ready
		for i := 1; i < len(m.entries); i++ {
			if m.entries[i].ready < earliest {
				earliest = m.entries[i].ready
				victim = i
			}
		}
		m.remove(victim)
		if earliest > start {
			start = earliest
		}
	}
	if m.tap != nil {
		m.tap.MSHRAlloc(m.level, len(m.entries))
		if start > now {
			m.tap.MSHRStall(m.level, start-now)
		}
	}
	// The entry's ready time is set by Complete once the downstream
	// latency is known; reserve with a placeholder in the far future so
	// concurrent allocations see the slot as busy.
	m.entries = append(m.entries, mshrEntry{blk: blk, ready: math.MaxInt64})
	return start
}

// Complete records the fill time of a previously allocated miss.
func (m *MSHR) Complete(blk mem.BlockAddr, ready int64) {
	if ready < m.minReady {
		m.minReady = ready
	}
	if i := m.find(blk); i >= 0 {
		m.entries[i].ready = ready
		return
	}
	m.entries = append(m.entries, mshrEntry{blk: blk, ready: ready})
}

// Abandon releases a reservation without a fill (e.g. the request was
// satisfied by a remote cache transfer handled elsewhere).
func (m *MSHR) Abandon(blk mem.BlockAddr) {
	if i := m.find(blk); i >= 0 {
		m.remove(i)
	}
}

// encodeState appends the register file's contents (entry count, then
// each block and ready time). After a pure functional warm-up the file
// is empty — warming never allocates registers — but the checkpoint
// serializes it anyway so resume identity holds by construction.
func (m *MSHR) encodeState(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.entries)))
	for i := range m.entries {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.entries[i].blk))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.entries[i].ready))
	}
	return buf
}

// decodeState restores state written by encodeState.
func (m *MSHR) decodeState(data []byte, owner string) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("cache %s: MSHR checkpoint truncated", owner)
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if n > m.cap || len(data) < 16*n {
		return nil, fmt.Errorf("cache %s: MSHR checkpoint truncated or over capacity", owner)
	}
	m.entries = m.entries[:0]
	m.minReady = math.MinInt64 // unknown: the next purge scans
	for i := 0; i < n; i++ {
		blk := mem.BlockAddr(binary.LittleEndian.Uint64(data))
		if m.find(blk) >= 0 {
			m.entries = m.entries[:0]
			return nil, fmt.Errorf("cache %s: MSHR checkpoint names block %#x twice", owner, uint64(blk))
		}
		m.entries = append(m.entries, mshrEntry{
			blk:   blk,
			ready: int64(binary.LittleEndian.Uint64(data[8:])),
		})
		data = data[16:]
	}
	return data, nil
}
