package check

import (
	"fmt"
	"math/bits"

	"graphmem/internal/cache"
	"graphmem/internal/coherence"
	"graphmem/internal/mem"
)

// Structural invariant checks, callable after any system tick in
// checked mode (Level Full). All reads go through stat-free accessors
// so sweeps never perturb the machine being checked.

// CheckCache validates one cache structure:
//
//   - at most one full (non-WOC) valid copy of any block (a WOC
//     fragment may legally coexist with a refetched full line under
//     line distillation);
//   - every line's recency stamp is bounded by the cache's clock, and
//     the clock itself never moves backwards between sweeps;
//   - the MSHR never holds more entries than it has registers, nor a
//     block in two of them (its newest-first search relies on that).
//
// name must be unique per structure instance (it keys the clock
// monotonicity state and labels violations).
func (k *Checker) CheckCache(name string, c *cache.Cache) {
	clock := c.Clock()
	if k.lastClock == nil {
		k.lastClock = make(map[string]int64)
	}
	if prev, ok := k.lastClock[name]; ok && clock < prev {
		k.Violate(Violation{Kind: "invariant", Core: -1,
			Msg: fmt.Sprintf("%s: recency clock moved backwards (%d -> %d)", name, prev, clock)})
	}
	k.lastClock[name] = clock

	if k.seen == nil {
		k.seen = make(map[mem.BlockAddr]struct{})
	} else {
		clear(k.seen)
	}
	c.ForEachValid(func(ln *cache.Line) {
		if ln.LRU > clock {
			k.Violate(Violation{Kind: "invariant", Core: -1, Blk: ln.Blk,
				Msg: fmt.Sprintf("%s: line recency %d ahead of clock %d", name, ln.LRU, clock)})
		}
		if ln.WOC {
			return
		}
		if _, dup := k.seen[ln.Blk]; dup {
			k.Violate(Violation{Kind: "invariant", Core: -1, Blk: ln.Blk,
				Msg: fmt.Sprintf("%s: duplicate full copy of block", name)})
		}
		k.seen[ln.Blk] = struct{}{}
	})

	if m := c.MSHR(); m != nil {
		if m.Len() > m.Capacity() {
			k.Violate(Violation{Kind: "invariant", Core: -1,
				Msg: fmt.Sprintf("%s: MSHR holds %d entries, capacity %d", name, m.Len(), m.Capacity())})
		}
		clear(k.seen)
		for _, e := range m.State() {
			if _, dup := k.seen[e.Blk]; dup {
				k.Violate(Violation{Kind: "invariant", Core: -1, Blk: e.Blk,
					Msg: fmt.Sprintf("%s: block occupies two MSHRs", name)})
			}
			k.seen[e.Blk] = struct{}{}
		}
	}
}

// CheckSDCDir validates the SDC directory against the actual SDCs
// (Section III-C's "precise information" property) plus the SDC vs
// hierarchy exclusivity the move-semantics transfer paths maintain:
//
//   - presence bits point only at SDCs that really hold the block;
//   - every SDC-resident block is tracked with that core's bit set;
//   - a Modified entry has exactly one sharer (single writer);
//   - a directory-tracked block has no copy in the conventional
//     hierarchy (inHierarchy reports that; nil skips the check).
//
// sdcs is indexed by core id; nil entries mark cores without an SDC.
func (k *Checker) CheckSDCDir(dir *coherence.SDCDir, sdcs []*cache.Cache, inHierarchy func(mem.BlockAddr) bool) {
	dir.ForEach(func(blk mem.BlockAddr, sharers uint64, state coherence.State) {
		for i := range sdcs {
			if sharers&(1<<i) == 0 {
				continue
			}
			if sdcs[i] == nil || !sdcs[i].Probe(blk) {
				k.Violate(Violation{Kind: "invariant", Core: i, Blk: blk,
					Msg: "SDCDir sharer bit set but SDC does not hold the block"})
			}
		}
		if state == coherence.Modified && bits.OnesCount64(sharers) != 1 {
			k.Violate(Violation{Kind: "invariant", Core: -1, Blk: blk,
				Msg: fmt.Sprintf("Modified entry with %d sharers", bits.OnesCount64(sharers))})
		}
		if inHierarchy != nil && inHierarchy(blk) {
			k.Violate(Violation{Kind: "invariant", Core: -1, Blk: blk,
				Msg: "SDCDir-tracked block also present in the conventional hierarchy"})
		}
	})
	for i, sdc := range sdcs {
		if sdc == nil {
			continue
		}
		sdc.ForEachValid(func(ln *cache.Line) {
			if sharers, _, ok := dir.Probe(ln.Blk); !ok || sharers&(1<<i) == 0 {
				k.Violate(Violation{Kind: "invariant", Core: i, Blk: ln.Blk,
					Msg: "SDC holds block the SDCDir does not track for this core"})
			}
		})
	}
}
