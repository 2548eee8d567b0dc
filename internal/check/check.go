// Package check is the differential correctness harness for the timing
// model: an architectural oracle that shadows every cache block with a
// version number, plus structural invariant checks over the caches and
// the SDCDir (see invariants.go).
//
// The simulator is address-only — no data values flow through it — so
// the oracle tracks data identity instead of data bytes: every store
// the model absorbs bumps the block's architectural version, every copy
// a cache holds is stamped with the version it was filled with, and
// every load is checked to be served from a copy stamped with the
// current architectural version. A stale-data bug anywhere in the SDC
// bypass, the SDCDir invalidation path or the hierarchy write-back
// chain therefore fails loudly, with core/PC/block provenance, the
// first time the stale copy is consumed.
//
// Version semantics:
//
//   - Versions are 1-based; version 0 is the "unknown" sentinel. A load
//     served at an unknown version is skipped (and counted), never
//     flagged — unknowns only arise on MSHR-merge fill paths where the
//     model itself does not know which fill the data came from.
//   - The shadow bumps only for stores the model actually absorbs
//     somewhere (a cache line dirtied, or DRAM written through). Store
//     misses that merge into an in-flight MSHR fill are dropped by the
//     model and do not bump the shadow, keeping the oracle free of
//     false positives against the model's own semantics.
//   - A separate DRAM version map tracks what main memory holds, so
//     write-backs and DRAM fills round-trip versions exactly.
//
// The Checker mutates nothing in the simulated machine: all its reads
// go through stat-free accessors (cache.VerOf/Probe, coherence.Probe,
// MSHR.Len), so a checked run produces bit-identical counters to an
// unchecked one.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"graphmem/internal/mem"
)

// Level selects how much checking a run performs.
type Level int

// Check levels.
const (
	// Off disables all checking: the simulator pays one nil-pointer
	// compare per hook site.
	Off Level = iota
	// OracleOnly runs the architectural load/store oracle.
	OracleOnly
	// Full adds the periodic cache + SDCDir invariant sweeps.
	Full
)

// levelNames names the levels, indexed by Level: the one list String,
// ParseLevel and the tools' -check help read.
var levelNames = [...]string{"off", "oracle", "full"}

// String implements fmt.Stringer.
func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return levelNames[l]
}

// LevelNames lists the level names in Level order.
func LevelNames() []string { return slices.Clone(levelNames[:]) }

// ParseLevel parses a level name; "" is Off.
func ParseLevel(s string) (Level, error) {
	if i := slices.Index(levelNames[:], cmp.Or(s, Off.String())); i >= 0 {
		return Level(i), nil
	}
	return Off, fmt.Errorf("check: unknown level %q (%s)", s, strings.Join(levelNames[:], "|"))
}

// Violation is one detected correctness failure.
type Violation struct {
	// Kind classifies the failure ("stale-load", "invariant").
	Kind string
	// Core and PC locate the access that exposed it (-1/0 for
	// invariant sweeps, which are not tied to one access).
	Core int
	PC   uint64
	// Blk is the affected cache block.
	Blk mem.BlockAddr
	// Msg is the human-readable detail.
	Msg string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s core=%d pc=%#x blk=%#x: %s", v.Kind, v.Core, v.PC, uint64(v.Blk), v.Msg)
}

// maxDetails bounds how many violations keep full detail; the total
// count keeps running regardless.
const maxDetails = 32

// Checker is the per-run oracle state. It is not safe for concurrent
// use; the simulator is single-threaded per system.
type Checker struct {
	level Level
	// shadow holds the architectural version of every stored-to block;
	// absent means version 1 (never stored).
	shadow map[mem.BlockAddr]uint64
	// dram holds the version main memory has for every written-back
	// block; absent means version 1.
	dram map[mem.BlockAddr]uint64

	// Counters.
	LoadsChecked  int64
	StoresTracked int64
	Unknowns      int64
	Sweeps        int64

	violations int64
	details    []Violation

	// Invariant-sweep scratch state (invariants.go): last observed
	// recency clock per cache, and a reusable per-sweep block set.
	lastClock map[string]int64
	seen      map[mem.BlockAddr]struct{}
}

// New creates a checker for the given level; nil-safe helpers in the
// simulator skip every hook when the level is Off (no Checker exists).
func New(level Level) *Checker {
	return &Checker{
		level:  level,
		shadow: make(map[mem.BlockAddr]uint64),
		dram:   make(map[mem.BlockAddr]uint64),
	}
}

// Level returns the configured check level.
func (k *Checker) Level() Level { return k.level }

// Shadow returns the architectural version of blk (default 1).
func (k *Checker) Shadow(blk mem.BlockAddr) uint64 {
	if v, ok := k.shadow[blk]; ok {
		return v
	}
	return 1
}

// StoreAbsorbed records that the model absorbed a store to blk and
// returns the new architectural version the absorbing copy must be
// stamped with.
func (k *Checker) StoreAbsorbed(blk mem.BlockAddr) uint64 {
	v := k.Shadow(blk) + 1
	k.shadow[blk] = v
	k.StoresTracked++
	return v
}

// DRAMWrite records a write-back of blk at version ver reaching DRAM
// (ver 0 marks DRAM's copy unknown).
func (k *Checker) DRAMWrite(blk mem.BlockAddr, ver uint64) {
	k.dram[blk] = ver
}

// DRAMRead returns the version a DRAM fill of blk delivers (default 1).
func (k *Checker) DRAMRead(blk mem.BlockAddr) uint64 {
	if v, ok := k.dram[blk]; ok {
		return v
	}
	return 1
}

// CheckLoad verifies that a demand load of blk was served from a copy
// at the current architectural version. src names the serving level for
// provenance; ver 0 (unknown) is skipped and counted.
func (k *Checker) CheckLoad(core int, pc uint64, blk mem.BlockAddr, src mem.ServedBy, ver uint64) {
	if ver == 0 {
		k.Unknowns++
		return
	}
	k.LoadsChecked++
	if want := k.Shadow(blk); ver != want {
		k.Violate(Violation{
			Kind: "stale-load", Core: core, PC: pc, Blk: blk,
			Msg: fmt.Sprintf("served v%d from %v, architectural version is v%d", ver, src, want),
		})
	}
}

// Violate records a violation, keeping detail for the first maxDetails.
func (k *Checker) Violate(v Violation) {
	k.violations++
	if len(k.details) < maxDetails {
		k.details = append(k.details, v)
	}
}

// Violations returns the total violation count.
func (k *Checker) Violations() int64 { return k.violations }

// Details returns the retained violation details (capped).
func (k *Checker) Details() []Violation { return k.details }

// Summary is the exportable outcome of a checked run; the zero value
// means checking was off.
type Summary struct {
	// Level is the check level the run used ("off" when unchecked).
	Level string `json:"level,omitempty"`
	// LoadsChecked / StoresTracked / UnknownVersions / Sweeps count
	// oracle activity.
	LoadsChecked    int64 `json:"loads_checked,omitempty"`
	StoresTracked   int64 `json:"stores_tracked,omitempty"`
	UnknownVersions int64 `json:"unknown_versions,omitempty"`
	Sweeps          int64 `json:"invariant_sweeps,omitempty"`
	// Violations is the total count; Details keeps the first few.
	Violations int64       `json:"violations"`
	Details    []Violation `json:"details,omitempty"`
}

// Merge folds another checker's outcome into this one — the bound–weave
// engine shards the shadow oracle per core (each core's disjoint address
// window has a single writer) and merges the shard summaries, in core
// order, into the system checker's. The Level of the receiver wins
// (shards always run at the same level); Details concatenate up to the
// usual maxDetails cap so the merged summary looks like a single run's.
func (s Summary) Merge(o Summary) Summary {
	if s.Level == "" {
		s.Level = o.Level
	}
	s.LoadsChecked += o.LoadsChecked
	s.StoresTracked += o.StoresTracked
	s.UnknownVersions += o.UnknownVersions
	s.Sweeps += o.Sweeps
	s.Violations += o.Violations
	for _, d := range o.Details {
		if len(s.Details) >= maxDetails {
			break
		}
		s.Details = append(s.Details, d)
	}
	return s
}

// Summary exports the checker's outcome.
func (k *Checker) Summary() Summary {
	return Summary{
		Level:           k.level.String(),
		LoadsChecked:    k.LoadsChecked,
		StoresTracked:   k.StoresTracked,
		UnknownVersions: k.Unknowns,
		Sweeps:          k.Sweeps,
		Violations:      k.violations,
		Details:         k.details,
	}
}
