// Package core implements the paper's primary contribution: the Large
// Predictor (LP), the PC-indexed stride-accumulation predictor that
// classifies memory accesses as cache-friendly or cache-averse
// (Section III-B), plus the hardware-budget arithmetic of Table IV. The
// Side Data Cache itself reuses the set-associative machinery of
// internal/cache; internal/sim wires LP, SDC and the SDCDir together.
package core

import (
	"encoding/binary"
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

type lpEntry struct {
	tag   uint64
	addr  mem.BlockAddr
	sAcc  uint64
	valid bool
	lru   int64
}

// LP is the Large Predictor: a small PC-indexed set-associative table.
// Each entry tracks the last block address touched by its PC and an
// exponentially-decayed accumulation of the absolute block strides
// between consecutive accesses: s_acc <- (s_acc + |stride|) >> 1.
// An access predicts cache-averse when its entry's s_acc >= τ_glob.
type LP struct {
	cfg     LPConfig
	entries []lpEntry // nsets x ways slab, set-major
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
		entries: make([]lpEntry, cfg.Entries),
		ways:    cfg.Ways,
		nsets:   nsets,
		setBits: uint(bits.TrailingZeros(uint(nsets))),
	}
}

// set returns the ways of set si as a slice into the slab.
func (lp *LP) set(si int) []lpEntry {
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
		if set[w].valid && set[w].tag == tag {
			return set[w].sAcc >= lp.cfg.Tau
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
		if !e.valid || e.tag != tag {
			continue
		}
		averse := e.sAcc >= lp.cfg.Tau
		if averse {
			lp.PredAverse++
		} else {
			lp.PredFriendly++
		}
		// Update: s = |v@ - entry.addr|; s_acc = (s_acc + s) >> 1.
		var s uint64
		if blk >= e.addr {
			s = uint64(blk - e.addr)
		} else {
			s = uint64(e.addr - blk)
		}
		acc := e.sAcc + s
		if acc > sAccMax {
			acc = sAccMax
		}
		e.sAcc = acc >> 1
		e.addr = blk
		e.lru = lp.clock
		return averse
	}
	// Table miss: friendly prediction + allocation (tag, addr=v@,
	// s_acc=0, valid=1).
	lp.TableMisses++
	lp.PredFriendly++
	way, best := 0, int64(1<<63-1)
	for w := range set {
		if !set[w].valid {
			way = w
			break
		}
		if set[w].lru < best {
			best = set[w].lru
			way = w
		}
	}
	set[way] = lpEntry{tag: tag, addr: blk, sAcc: 0, valid: true, lru: lp.clock}
	return false
}

// SAcc exposes an entry's accumulator for tests and introspection; ok is
// false when the PC has no entry.
func (lp *LP) SAcc(pc uint64) (uint64, bool) {
	si, tag := lp.split(pc)
	set := lp.set(si)
	for w := range set {
		if e := &set[w]; e.valid && e.tag == tag {
			return e.sAcc, true
		}
	}
	return 0, false
}

// EncodeState appends the predictor's clock and table to buf.
func (lp *LP) EncodeState(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(lp.entries)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lp.clock))
	for i := range lp.entries {
		e := &lp.entries[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.tag)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.addr))
		buf = binary.LittleEndian.AppendUint64(buf, e.sAcc)
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
func (lp *LP) DecodeState(data []byte) ([]byte, error) {
	if len(data) < 4+8 {
		return nil, fmt.Errorf("core: LP checkpoint truncated")
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n != len(lp.entries) {
		return nil, fmt.Errorf("core: LP checkpoint geometry mismatch: %d entries, have %d", n, len(lp.entries))
	}
	lp.clock = int64(binary.LittleEndian.Uint64(data[4:]))
	data = data[12:]
	const entryBytes = 8 + 8 + 8 + 1 + 8
	if len(data) < n*entryBytes {
		return nil, fmt.Errorf("core: LP checkpoint truncated")
	}
	for i := range lp.entries {
		e := &lp.entries[i]
		e.tag = binary.LittleEndian.Uint64(data)
		e.addr = mem.BlockAddr(binary.LittleEndian.Uint64(data[8:]))
		e.sAcc = binary.LittleEndian.Uint64(data[16:])
		e.valid = data[24] != 0
		e.lru = int64(binary.LittleEndian.Uint64(data[25:]))
		data = data[entryBytes:]
	}
	return data, nil
}
