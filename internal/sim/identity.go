package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphmem/internal/cache"
)

// WallClockOnly lists the Config fields (dotted paths) that affect how
// fast a run executes and never what it computes: results are identical
// at any WeaveWorkers. They are the only fields AppendIdentity omits;
// the harness's coverage test fails for any other field a perturbation
// of which leaves the identity unchanged.
var WallClockOnly = []string{"WeaveWorkers"}

// identity is an append-style canonical encoder: varints (self-
// delimiting, and short — the digest's cost is its input's length) and
// length-prefixed strings, so no two field sequences share bytes.
type identity struct{ b []byte }

func (e identity) int(v int64) identity { e.b = binary.AppendVarint(e.b, v); return e }

func (e identity) str(s string) identity { e = e.int(int64(len(s))); e.b = append(e.b, s...); return e }

func (e identity) bool(v bool) identity {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
	return e
}

// cache encodes one cache.Config; the replacement policy enters by its
// concrete type name (nil, the LRU default, as the empty string).
func (e identity) cache(c *cache.Config) identity {
	e = e.str(c.Name).int(int64(c.SizeBytes)).int(int64(c.Ways)).int(c.Latency).int(int64(c.MSHRs))
	policy := ""
	if c.Policy != nil {
		policy = fmt.Sprintf("%T", c.Policy)
	}
	return e.str(policy).distill(c.DistillWOCWays)
}

// distill encodes a Line Distillation way count as the (enabled, ways)
// pair the format has always carried.
func (e identity) distill(ways int) identity { return e.bool(ways > 0).int(int64(ways)) }

// identityFormat versions the encoding below; bump it when the field
// list or its order changes.
const identityFormat = 1

// AppendIdentity appends to b the canonical encoding of a run of c: the
// format and simulator state versions, the caller's scope strings (the
// harness passes run kind, profile and workload), then every
// result-affecting field — nested CPU, cache, LP and DRAM configs
// included, everything but WallClockOnly. Two runs with equal encodings
// compute the same result. The display Name is encoded too, so one
// machine under two Names is two runs (ROADMAP item 2(c)). A new Config
// field is either appended to this walk (bumping identityFormat) or
// listed in WallClockOnly.
func (c *Config) AppendIdentity(b []byte, scope ...string) []byte {
	e := identity{b}.int(identityFormat).int(StateVersion).int(int64(len(scope)))
	for _, s := range scope {
		e = e.str(s)
	}
	// Format 1 was laid out when the branch-miss penalty, the L2's
	// distillation and the LLC policy each had a top-level Config field
	// (and the penalty a second one in CPU). Their values stay in those
	// slots, and the CPU and L2 ones encode as zero, so no key moves.
	// The third LLC-policy slot is retired: it was true only for P-OPT,
	// a policy since removed, and it encodes false so no other key moves.
	l2 := c.L2
	l2.DistillWOCWays = 0
	p := c.LLCPolicy
	e = e.str(c.Name).int(int64(c.Cores)).
		int(int64(c.CPU.Width)).int(int64(c.CPU.ROB)).int(c.CPU.ExecLatency).int(0).
		cache(&c.L1D).cache(&l2).
		int(int64(c.LLCPerCoreBytes)).int(int64(c.LLCWays)).int(c.LLCLatency).int(int64(c.LLCMSHRs)).
		bool(p == LLCTOPT).bool(p == LLCSRRIP).bool(false).distill(c.L2.DistillWOCWays).
		int(int64(c.Routing)).cache(&c.SDC).
		int(int64(c.LP.Entries)).int(int64(c.LP.Ways)).int(int64(c.LP.Tau)).
		int(int64(c.SDCDirEntriesPerCore)).int(int64(c.SDCDirWays)).int(c.DirLatency).
		str(c.Prefetchers).int(c.CPU.BranchMissPenalty).int(int64(c.VictimEntries)).bool(c.LPAdaptive)
	d := &c.DRAM
	e = e.int(int64(d.Banks)).int(int64(d.RowBytes)).int(d.TRP).int(d.TRCD).int(d.TCAS).int(d.BurstCycles).
		int(int64(math.Float64bits(d.CPUFreqMHz))).int(int64(math.Float64bits(d.BusFreqMHz))).
		int(int64(c.DRAMChannels)).
		int(c.Warmup).int(c.Measure).int(c.EpochInterval).
		bool(c.FlightRecorder).int(c.FRInterval).int(int64(c.CheckLevel)).bool(c.BreakSDCDirInval)
	sp := &c.Sampling
	return e.int(sp.Period).int(sp.SampleLen).int(sp.Offset).int(sp.DetailWarm).bool(sp.MisWarm).
		int(c.Quantum).b
}
