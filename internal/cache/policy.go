package cache

import (
	"graphmem/internal/mem"
)

// Policy decides victims on fills. Implementations must pick among the
// candidate ways passed to Victim (the line-organized portion of the
// set; distillation WOC ways are managed separately).
type Policy interface {
	// Victim returns the way index to evict. All candidate lines are
	// valid when called.
	Victim(c *Cache, blk mem.BlockAddr, set []Line) int
	// OnHit is informed of a demand hit on way w.
	OnHit(c *Cache, blk mem.BlockAddr, set []Line, w int)
	// OnFill is informed after a fill into way w.
	OnFill(c *Cache, blk mem.BlockAddr, set []Line, w int)
}

// LRU is least-recently-used replacement (the Table I default for every
// cache level).
type LRU struct{}

// Victim implements Policy.
func (LRU) Victim(c *Cache, blk mem.BlockAddr, set []Line) int {
	way, best := 0, int64(1<<63-1)
	for w := range set {
		if s := set[w].LRU; s < best {
			best = s
			way = w
		}
	}
	return way
}

// OnHit implements Policy (recency is maintained by the cache itself).
func (LRU) OnHit(*Cache, mem.BlockAddr, []Line, int) {}

// OnFill implements Policy.
func (LRU) OnFill(*Cache, mem.BlockAddr, []Line, int) {}

// NextUseOracle supplies the T-OPT policy with quantized next-reference
// ranks. Implementations derive them from the graph transpose (see
// internal/kernels.TransposeOracle): 0 means "referenced again almost
// immediately", RankMax means "no known future reference".
type NextUseOracle interface {
	// Rank returns the re-reference rank of blk at the current point of
	// the traversal.
	Rank(blk mem.BlockAddr) uint8
}

// RankMax is the largest (furthest-future) T-OPT rank.
const RankMax uint8 = 255

// RankDefault is the rank T-OPT assigns to blocks outside the graph's
// irregular property regions, giving them middle priority (Balaji et
// al.'s practical variant treats non-matrix data the same way).
const RankDefault uint8 = 128

// TOPT is the Transpose-based Optimal Cache Replacement policy of
// Balaji et al. (HPCA 2021), the paper's main prior-work comparison: on
// eviction it consults a transpose-derived oracle for the next
// reference of each candidate's block and evicts the furthest-future
// one. Blocks without oracle coverage get RankDefault; ties fall back
// to LRU order.
type TOPT struct {
	Oracle NextUseOracle
}

// Victim implements Policy.
func (t *TOPT) Victim(c *Cache, blk mem.BlockAddr, set []Line) int {
	way := 0
	bestRank := -1
	bestLRU := int64(1<<63 - 1)
	for w := range set {
		r := int(t.Oracle.Rank(set[w].Blk))
		s := set[w].LRU
		if r > bestRank || (r == bestRank && s < bestLRU) {
			bestRank = r
			bestLRU = s
			way = w
		}
	}
	return way
}

// OnHit implements Policy.
func (t *TOPT) OnHit(*Cache, mem.BlockAddr, []Line, int) {}

// OnFill implements Policy.
func (t *TOPT) OnFill(*Cache, mem.BlockAddr, []Line, int) {}

// SRRIP is Static Re-Reference Interval Prediction (Jaleel et al.,
// ISCA 2010), the general-purpose replacement family the paper's
// related work cites as struggling with graph workloads: 2-bit RRPVs,
// long-re-reference insertion (RRPV=2), promotion to 0 on hit, victim =
// first line with RRPV=3 (aging everyone until one exists).
type SRRIP struct{}

// rrpvMax is the distant-future value for 2-bit RRPVs.
const rrpvMax = 3

// Victim implements Policy.
func (SRRIP) Victim(c *Cache, blk mem.BlockAddr, set []Line) int {
	for {
		for w := range set {
			if set[w].RRPV >= rrpvMax {
				return w
			}
		}
		for w := range set {
			set[w].RRPV++
		}
	}
}

// OnHit implements Policy: near-immediate re-reference prediction.
func (SRRIP) OnHit(c *Cache, blk mem.BlockAddr, set []Line, w int) {
	set[w].RRPV = 0
}

// OnFill implements Policy: insert with a long re-reference interval.
func (SRRIP) OnFill(c *Cache, blk mem.BlockAddr, set []Line, w int) {
	set[w].RRPV = rrpvMax - 1
}
