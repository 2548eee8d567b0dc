// Package core implements the paper's primary contribution: the Large
// Predictor (LP), the PC-indexed stride-accumulation predictor that
// classifies memory accesses as cache-friendly or cache-averse
// (Section III-B), plus the hardware-budget arithmetic of Table IV. The
// Side Data Cache itself reuses the set-associative machinery of
// internal/cache; internal/sim wires LP, SDC and the SDCDir together.
package core

import (
	"fmt"
	"math/bits"

	"graphmem/internal/mem"
)

// SAccBits is the width of the stride-accumulator field (Table IV).
const SAccBits = 14

// sAccMax is the saturation value of the accumulator.
const sAccMax = (1 << SAccBits) - 1

// LPConfig configures the Large Predictor.
type LPConfig struct {
	// Entries is the total prediction-table entry count.
	Entries int
	// Ways is the table's associativity (Entries/Ways sets). Set
	// Ways == Entries for a fully-associative table.
	Ways int
	// Tau is the global threshold τ_glob: an access whose entry's
	// accumulated stride is >= Tau (in cache blocks) is classified
	// cache-averse and routed to the SDC.
	Tau uint64
}

// DefaultLPConfig returns the Table I configuration: 32 entries, 8-way,
// τ_glob = 8.
func DefaultLPConfig() LPConfig {
	return LPConfig{Entries: 32, Ways: 8, Tau: 8}
}

// LPEntry is one prediction-table slot: the PC tag, the last block its
// PC touched, the accumulated stride and the LRU stamp.
type LPEntry struct {
	Tag   uint64
	Addr  mem.BlockAddr
	SAcc  uint64
	Valid bool
	LRU   int64
}

// LP is the Large Predictor: a small PC-indexed set-associative table.
// Each entry tracks the last block address touched by its PC and an
// exponentially-decayed accumulation of the absolute block strides
// between consecutive accesses: s_acc <- (s_acc + |stride|) >> 1.
// An access predicts cache-averse when its entry's s_acc >= τ_glob.
type LP struct {
	cfg     LPConfig
	entries []LPEntry // nsets x ways slab, set-major
	ways    int
	nsets   int
	setBits uint
	clock   int64
	// PredAverse / PredFriendly / TableMisses count prediction
	// outcomes for stats.
	PredAverse, PredFriendly, TableMisses int64
}

// NewLP builds a predictor from cfg.
func NewLP(cfg LPConfig) *LP {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("core: bad LP geometry %d entries %d ways", cfg.Entries, cfg.Ways))
	}
	nsets := cfg.Entries / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic("core: LP set count must be a power of two")
	}
	return &LP{
		cfg:     cfg,
		entries: make([]LPEntry, cfg.Entries),
		ways:    cfg.Ways,
		nsets:   nsets,
		setBits: uint(bits.TrailingZeros(uint(nsets))),
	}
}

// set returns the ways of set si as a slice into the slab.
func (lp *LP) set(si int) []LPEntry {
	return lp.entries[si*lp.ways : (si+1)*lp.ways]
}

// Config returns the predictor's configuration.
func (lp *LP) Config() LPConfig { return lp.cfg }

// pcIndex normalizes an instruction address for indexing. Instruction
// addresses are 8-byte aligned in the synthetic trace, so the paper's
// "PC mod #sets / PC >> log2(#sets)" hash is applied to the aligned PC.
func pcIndex(pc uint64) uint64 { return pc >> 3 }

func (lp *LP) split(pc uint64) (set int, tag uint64) {
	p := pcIndex(pc)
	return int(p & uint64(lp.nsets-1)), p >> lp.setBits
}

// Predict performs a read-only classification of the access (Fig. 4):
// true means cache-averse (route to the SDC), false means cache-friendly
// (route to the L1D path). A prediction-table miss predicts friendly.
func (lp *LP) Predict(pc uint64) bool {
	si, tag := lp.split(pc)
	set := lp.set(si)
	for w := range set {
		if set[w].Valid && set[w].Tag == tag {
			return set[w].SAcc >= lp.cfg.Tau
		}
	}
	return false
}

// PredictAndUpdate performs the per-access LP operation: classify using
// the entry's current accumulated stride (Fig. 4), then update the entry
// with the new stride observation (Fig. 5), allocating on a table miss
// with LRU replacement (Section III-B3). It returns true when the
// access is classified cache-averse.
func (lp *LP) PredictAndUpdate(pc uint64, blk mem.BlockAddr) bool {
	si, tag := lp.split(pc)
	set := lp.set(si)
	lp.clock++
	for w := range set {
		e := &set[w]
		if !e.Valid || e.Tag != tag {
			continue
		}
		averse := e.SAcc >= lp.cfg.Tau
		if averse {
			lp.PredAverse++
		} else {
			lp.PredFriendly++
		}
		// Update: s = |v@ - entry.Addr|; s_acc = (s_acc + s) >> 1.
		var s uint64
		if blk >= e.Addr {
			s = uint64(blk - e.Addr)
		} else {
			s = uint64(e.Addr - blk)
		}
		acc := e.SAcc + s
		if acc > sAccMax {
			acc = sAccMax
		}
		e.SAcc = acc >> 1
		e.Addr = blk
		e.LRU = lp.clock
		return averse
	}
	// Table miss: friendly prediction + allocation (tag, addr=v@,
	// s_acc=0, valid=1).
	lp.TableMisses++
	lp.PredFriendly++
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
	set[way] = LPEntry{Tag: tag, Addr: blk, SAcc: 0, Valid: true, LRU: lp.clock}
	return false
}

// SAcc exposes an entry's accumulator for tests and introspection; ok is
// false when the PC has no entry.
func (lp *LP) SAcc(pc uint64) (uint64, bool) {
	si, tag := lp.split(pc)
	set := lp.set(si)
	for w := range set {
		if e := &set[w]; e.Valid && e.Tag == tag {
			return e.SAcc, true
		}
	}
	return 0, false
}
