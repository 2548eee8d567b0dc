// The replaceable state behind the sampling engine's warm-up
// checkpoints (internal/sim/checkpoint.go): what a cache holds, read out
// and put back. The store's codec (store.Marshal) carries it.

package cache

import "fmt"

// State is a cache's complete replaceable state: the LRU clock, every
// line — including fields that are provably zero after a pure
// functional warm-up (ReadyAt, Prefetched) — and the MSHR file (nil for
// a cache without one). Carrying everything rather than the
// warm-reachable subset is what makes a restore identical to the
// captured cache by construction instead of by argument.
type State struct {
	Clock int64
	Lines []Line
	MSHR  []MSHREntry
}

// State returns the cache's state. Its slices are the cache's own
// slabs: read it (or marshal it) before the cache moves again, never
// write it.
func (c *Cache) State() State {
	s := State{Clock: c.lruClock, Lines: c.lines}
	if c.mshr != nil {
		s.MSHR = c.mshr.State()
	}
	return s
}

// Restore replaces the cache's state with s, refusing a state captured
// from another geometry.
func (c *Cache) Restore(s State) error {
	if len(s.Lines) != len(c.lines) {
		return fmt.Errorf("cache %s: state of %d lines for %d", c.cfg.Name, len(s.Lines), len(c.lines))
	}
	if c.mshr != nil {
		if err := c.mshr.Restore(s.MSHR); err != nil {
			return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
		}
	} else if s.MSHR != nil {
		return fmt.Errorf("cache %s: MSHR state for a cache without MSHRs", c.cfg.Name)
	}
	c.lruClock = s.Clock
	copy(c.lines, s.Lines)
	return nil
}
