// Package cache models the set-associative caches of the hierarchy
// (L1D, L2C, LLC, and the paper's SDC reuses the same machinery):
// lookup/fill/invalidate with per-line fill timestamps, MSHRs with
// merge-and-stall semantics, pluggable replacement (LRU, the T-OPT
// transpose-driven policy of Balaji et al.) and the Line Distillation
// organization of Qureshi et al. used as the "Distill Cache" baseline.
//
// Timing follows the repository-wide timestamp-reservation scheme: the
// cache never steps cycles; callers pass the current CPU cycle and get
// back ready-at timestamps.
//
// Concurrency contract (bound–weave engine, internal/sim/boundweave.go):
// a Cache instance is single-goroutine — private caches (L1D, SDC, L2)
// belong to their core's bound-phase goroutine, while the shared LLC is
// mutated only by the serial weave replay (Lookup/Fill/MSHR calls in
// replayLLCRead and friends). Nothing in this package locks; the engine
// provides the isolation.
package cache

import (
	"fmt"

	"graphmem/internal/mem"
	"graphmem/internal/stats"
)

// Config describes one cache structure.
type Config struct {
	// Name appears in stats output ("L1D", "L2C", ...).
	Name string
	// SizeBytes is the total data capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// Latency is the lookup (hit) latency in cycles.
	Latency int64
	// MSHRs bounds outstanding misses; 0 means unlimited.
	MSHRs int
	// Policy selects the replacement policy; nil means LRU.
	Policy Policy
	// DistillWOCWays, when positive, enables the Line Distillation
	// organization: the last DistillWOCWays ways of each set form the
	// Word-Organized Cache holding only the used words of lines evicted
	// from the rest. It must be below Ways; zero is a plain cache.
	DistillWOCWays int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	s := c.SizeBytes / (mem.BlockSize * c.Ways)
	if s <= 0 || s&(s-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a positive power of two (size=%d ways=%d)",
			c.Name, s, c.SizeBytes, c.Ways))
	}
	return s
}

// Line is one cache line's bookkeeping. The simulator is address-only;
// no data is stored.
type Line struct {
	Blk        mem.BlockAddr
	Valid      bool
	Dirty      bool
	Prefetched bool
	// ReadyAt is the fill completion time: a hit on a line still being
	// filled waits until then (MSHR hit-under-fill).
	ReadyAt int64
	// Used is a per-word (4 B) use bitmask for line distillation.
	Used uint16
	// WOC marks a distillation word-organized entry that only holds the
	// words set in Used.
	WOC bool
	// RRPV is the re-reference prediction value maintained by the
	// SRRIP policy (unused under other policies).
	RRPV uint8
	// Ver is the architectural version stamp maintained by the
	// differential checker (internal/check); 0 means unknown. The cache
	// itself never reads it — internal/sim stamps it via SetVer in
	// checked runs only, so unchecked runs pay nothing.
	Ver uint64
	// LRU is the recency stamp maintained by the cache.
	LRU int64
}

// Cache is one set-associative cache structure.
//
// Lines are stored as one contiguous slab indexed arithmetically by
// (set, way) rather than a slice-of-slices: the per-record set scan is
// the hottest loop in the simulator and the slab keeps every way of a
// set on adjacent cache lines of the host.
type Cache struct {
	cfg      Config
	lines    []Line // nsets x ways slab, set-major
	setMask  uint64
	ways     int
	lruClock int64
	policy   Policy
	mshr     *MSHR
	// Stats counts demand activity (prefetch fills are counted
	// separately by the caller via MarkPrefetchFill).
	Stats stats.CacheStats
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	nsets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		lines:   make([]Line, nsets*cfg.Ways),
		setMask: uint64(nsets - 1),
		ways:    cfg.Ways,
		policy:  cfg.Policy,
	}
	if c.policy == nil {
		c.policy = LRU{}
	}
	if w := cfg.DistillWOCWays; w < 0 || w > 0 && w >= cfg.Ways {
		panic(fmt.Sprintf("cache %s: bad DistillWOCWays %d for %d ways", cfg.Name, cfg.DistillWOCWays, cfg.Ways))
	}
	if cfg.MSHRs > 0 {
		c.mshr = NewMSHR(cfg.MSHRs)
	}
	return c
}

// SetTap attaches (nil detaches) the flight-recorder hook to the
// cache's MSHR file, tagging events with the cache's serving level.
// A no-op for caches without MSHRs.
func (c *Cache) SetTap(t mem.Tap, level mem.ServedBy) {
	if c.mshr != nil {
		c.mshr.SetTap(t, level)
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the lookup latency in cycles.
func (c *Cache) Latency() int64 { return c.cfg.Latency }

// MSHR exposes the miss-status holding registers (nil when unlimited)
// to occupancy sampling, invariant checks and tests; the hierarchy walk
// goes through MissBegin, MissEnd and PrefetchBegin.
func (c *Cache) MSHR() *MSHR { return c.mshr }

// MissBegin, MissEnd and PrefetchBegin are the one statement of the
// MSHR protocol every level of the hierarchy walk follows; a cache
// without MSHRs passes straight through all three.
//
// MissBegin opens a demand miss on blk at time t (the lookup latency
// already charged). A miss already outstanding absorbs the access:
// merged is true, the merge is counted, and at is when that fill lands
// (after t: Lookup reports only fills still outstanding). Otherwise a register is reserved and at is when the
// miss can go downstream — later than t when every register is busy —
// and the caller owes a MissEnd once it knows the fill time.
func (c *Cache) MissBegin(blk mem.BlockAddr, t int64) (at int64, merged bool) {
	if c.mshr == nil {
		return t, false
	}
	if ready, inflight := c.mshr.Lookup(blk, t); inflight {
		c.Stats.MergedMSHR++
		return ready, true
	}
	return c.mshr.Allocate(blk, t), false
}

// MissEnd records the fill time of the miss MissBegin or PrefetchBegin
// reserved a register for.
func (c *Cache) MissEnd(blk mem.BlockAddr, ready int64) {
	if c.mshr != nil {
		c.mshr.Complete(blk, ready)
	}
}

// PrefetchBegin admits a prefetch of blk at time now: refused when the
// block is already in flight or no register is free (a prefetch never
// stalls), otherwise a register is reserved and the caller owes a
// MissEnd.
func (c *Cache) PrefetchBegin(blk mem.BlockAddr, now int64) bool {
	if c.mshr == nil {
		return true
	}
	if _, inflight := c.mshr.Lookup(blk, now); inflight || c.mshr.Outstanding(now) >= c.mshr.cap {
		return false
	}
	c.mshr.Allocate(blk, now)
	return true
}

func (c *Cache) setIndex(blk mem.BlockAddr) int {
	return int(uint64(blk) & c.setMask)
}

// set returns the ways of set si as a full-capacity slice into the slab.
func (c *Cache) set(si int) []Line {
	return c.lines[si*c.ways : (si+1)*c.ways]
}

// wordMask returns the distillation used-word bits touched by an access
// of size bytes at addr.
func wordMask(addr mem.Addr, size uint8) uint16 {
	first := addr.BlockOffset() / 4
	last := (addr.BlockOffset() + uint64(size) - 1) / 4
	if last > 15 {
		last = 15
	}
	return uint16(1<<(last-first+1)-1) << first
}

// LookupResult describes the outcome of a Lookup.
type LookupResult struct {
	Hit bool
	// ReadyAt is valid on a hit: when the data can be delivered,
	// accounting for the lookup latency and any in-progress fill.
	ReadyAt int64
	// WOCHit marks a distillation hit served from the word-organized
	// portion of the set.
	WOCHit bool
}

// Lookup performs a demand access at CPU cycle now. On a hit it updates
// recency/used-word state and returns the data-ready time. On a miss it
// records the miss; the caller is responsible for fetching the block
// downstream and calling Fill. Prefetch lookups (prefetch=true) count
// into the separate PFHits/PFMisses so demand MPKI stays clean.
func (c *Cache) Lookup(blk mem.BlockAddr, addr mem.Addr, size uint8, write, prefetch bool, now int64) LookupResult {
	set := c.set(c.setIndex(blk))
	t := now + c.cfg.Latency
	for w := range set {
		ln := &set[w]
		if !ln.Valid || ln.Blk != blk {
			continue
		}
		// wordMask is cheap but not free; compute it only for a
		// matching candidate, never on the pure-miss scan.
		wm := wordMask(addr, size)
		if ln.WOC {
			// A word-organized entry only serves the words it kept.
			if ln.Used&wm != wm {
				continue
			}
		}
		c.lruClock++
		ln.LRU = c.lruClock
		ln.Used |= wm
		if write {
			ln.Dirty = true
		}
		if prefetch {
			c.Stats.PFHits++
		} else {
			c.Stats.Hits++
		}
		c.policy.OnHit(c, blk, set, w)
		ready := t
		if ln.ReadyAt > ready {
			ready = ln.ReadyAt
		}
		return LookupResult{Hit: true, ReadyAt: ready, WOCHit: ln.WOC}
	}
	if prefetch {
		c.Stats.PFMisses++
	} else {
		c.Stats.Misses++
	}
	return LookupResult{Hit: false, ReadyAt: t}
}

// Probe reports whether blk is present (valid, full line or any WOC
// fragment) without touching recency, stats or used-word state.
func (c *Cache) Probe(blk mem.BlockAddr) bool {
	set := c.set(c.setIndex(blk))
	for w := range set {
		if set[w].Valid && set[w].Blk == blk {
			return true
		}
	}
	return false
}

// ProbeDirty reports presence and dirtiness without state changes.
func (c *Cache) ProbeDirty(blk mem.BlockAddr) (present, dirty bool) {
	set := c.set(c.setIndex(blk))
	for w := range set {
		if set[w].Valid && set[w].Blk == blk {
			return true, set[w].Dirty
		}
	}
	return false, false
}

// Victim describes a line evicted by Fill.
type Victim struct {
	Valid bool
	Blk   mem.BlockAddr
	Dirty bool
	// Used carries the distillation use mask of the evicted line.
	Used uint16
	// Ver carries the evicted line's checker version stamp.
	Ver uint64
}

// Fill inserts blk, returning the evicted victim (Victim.Valid=false if
// an invalid way was used). readyAt is the fill completion time;
// prefetch marks prefetcher-initiated fills; write pre-dirties the line
// (write-allocate stores).
func (c *Cache) Fill(blk mem.BlockAddr, addr mem.Addr, size uint8, write, prefetch bool, readyAt int64) Victim {
	si := c.setIndex(blk)
	set := c.set(si)
	// Refill of a line already present (e.g. prefetch racing a demand
	// fill): refresh timing only.
	for w := range set {
		if set[w].Valid && set[w].Blk == blk && !set[w].WOC {
			if readyAt < set[w].ReadyAt {
				set[w].ReadyAt = readyAt
			}
			if write {
				set[w].Dirty = true
			}
			return Victim{}
		}
	}
	lastLOC := len(set) - c.cfg.DistillWOCWays
	way := -1
	for w := 0; w < lastLOC; w++ {
		if !set[w].Valid {
			way = w
			break
		}
	}
	var v Victim
	if way < 0 {
		way = c.policy.Victim(c, blk, set[:lastLOC])
		ln := &set[way]
		v = Victim{Valid: true, Blk: ln.Blk, Dirty: ln.Dirty, Used: ln.Used, Ver: ln.Ver}
		ln.Valid = false
		if c.cfg.DistillWOCWays > 0 {
			// Line distillation: retain the victim's used words in the
			// word-organized ways instead of discarding the whole line.
			c.distillInsert(si, v)
			// The WOC now holds any dirty words; don't double-writeback.
		}
		c.Stats.Evictions++
		if v.Dirty {
			c.Stats.Writebacks++
		}
	}
	c.lruClock++
	ln := &set[way]
	*ln = Line{
		Blk:        blk,
		Valid:      true,
		Dirty:      write,
		Prefetched: prefetch,
		ReadyAt:    readyAt,
		Used:       wordMask(addr, size),
		LRU:        c.lruClock,
	}
	c.policy.OnFill(c, blk, set[:lastLOC], way)
	return v
}

// distillInsert places an evicted line's used words into the WOC ways of
// set si, evicting the LRU WOC entry.
func (c *Cache) distillInsert(si int, v Victim) {
	if v.Used == 0 {
		return
	}
	set := c.set(si)
	start := len(set) - c.cfg.DistillWOCWays
	way := start
	best := int64(1<<63 - 1)
	for w := start; w < len(set); w++ {
		if !set[w].Valid {
			way = w
			break
		}
		if set[w].LRU < best {
			best = set[w].LRU
			way = w
		}
	}
	c.lruClock++
	set[way] = Line{
		Blk:   v.Blk,
		Valid: true,
		Dirty: v.Dirty,
		WOC:   true,
		Used:  v.Used,
		Ver:   v.Ver,
		LRU:   c.lruClock,
	}
}

// Invalidate removes blk if present and reports whether it was there and
// dirty (the caller must write it back if so).
func (c *Cache) Invalidate(blk mem.BlockAddr) (present, dirty bool) {
	set := c.set(c.setIndex(blk))
	for w := range set {
		if set[w].Valid && set[w].Blk == blk {
			present = true
			dirty = dirty || set[w].Dirty
			set[w].Valid = false
		}
	}
	return present, dirty
}

// MarkPrefetchFill counts a prefetch fill in the stats.
func (c *Cache) MarkPrefetchFill() { c.Stats.Prefetches++ }

// VerOf returns the checker version stamp of blk's copy (0 when absent
// or never stamped). Like Probe it touches no recency or stats state,
// so checked and unchecked runs stay counter-identical.
func (c *Cache) VerOf(blk mem.BlockAddr) uint64 {
	set := c.set(c.setIndex(blk))
	for w := range set {
		if set[w].Valid && set[w].Blk == blk {
			return set[w].Ver
		}
	}
	return 0
}

// SetVer stamps every valid copy of blk with the checker version. The
// stamp is the only state it touches.
func (c *Cache) SetVer(blk mem.BlockAddr, ver uint64) {
	set := c.set(c.setIndex(blk))
	for w := range set {
		if set[w].Valid && set[w].Blk == blk {
			set[w].Ver = ver
		}
	}
}

// Clock returns the cache's recency clock (for invariant checks: every
// line's LRU stamp must be <= Clock, and Clock must never decrease).
func (c *Cache) Clock() int64 { return c.lruClock }

// Occupancy returns the number of valid lines (full and WOC).
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid {
			n++
		}
	}
	return n
}

// ForEachValid calls fn for every valid line; used by invariant checks
// in tests.
func (c *Cache) ForEachValid(fn func(ln *Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}
