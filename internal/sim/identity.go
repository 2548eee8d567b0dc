package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphmem/internal/cache"
)

// WallClockOnly lists the Config fields (dotted paths) that affect how
// fast a run executes and never what it computes: results are identical
// at any WeaveWorkers, and a restored warm-up is byte-identical to a
// re-warmed one. They are the only fields AppendIdentity omits; the
// harness's coverage test fails for any other field a perturbation of
// which leaves the identity unchanged.
var WallClockOnly = []string{"Sampling.Store", "WeaveWorkers"}

// identity is an append-style canonical encoder: varints (self-
// delimiting, and short — the digest's cost is its input's length) and
// length-prefixed strings, so no two field sequences share bytes.
type identity []byte

func (b identity) int(v int64) identity { return binary.AppendVarint(b, v) }

func (b identity) str(s string) identity { return append(b.int(int64(len(s))), s...) }

func (b identity) bool(v bool) identity {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// cache encodes one cache.Config; the replacement policy enters by its
// concrete type name (nil, the LRU default, as the empty string).
func (b identity) cache(c *cache.Config) identity {
	b = b.str(c.Name).int(int64(c.SizeBytes)).int(int64(c.Ways)).int(c.Latency).int(int64(c.MSHRs))
	policy := ""
	if c.Policy != nil {
		policy = fmt.Sprintf("%T", c.Policy)
	}
	return b.str(policy).bool(c.Distill).int(int64(c.DistillWOCWays))
}

// identityFormat versions the encoding below; bump it when the field
// list or its order changes.
const identityFormat = 1

// AppendIdentity appends to b the canonical encoding of a run of c: the
// format and simulator state versions, the caller's scope strings (the
// harness passes run kind, profile and workload), then every
// result-affecting field — nested CPU, cache, LP and DRAM configs
// included, everything but WallClockOnly. Two runs compute the same
// result exactly when their encodings are equal, whatever the configs'
// Names. A new Config field is either appended here (bumping
// identityFormat) or listed in WallClockOnly.
func (c *Config) AppendIdentity(b []byte, scope ...string) []byte {
	e := identity(b).int(identityFormat).int(StateVersion).int(int64(len(scope)))
	for _, s := range scope {
		e = e.str(s)
	}
	e = e.str(c.Name).int(int64(c.Cores)).
		int(int64(c.CPU.Width)).int(int64(c.CPU.ROB)).int(c.CPU.ExecLatency).int(c.CPU.BranchMissPenalty).
		cache(&c.L1D).cache(&c.L2).
		int(int64(c.LLCPerCoreBytes)).int(int64(c.LLCWays)).int(c.LLCLatency).int(int64(c.LLCMSHRs)).
		bool(c.LLCTOPT).bool(c.LLCRRIP).bool(c.LLCPOPT).bool(c.L2Distill).int(int64(c.L2DistillWays)).
		int(int64(c.Routing)).cache(&c.SDC).
		int(int64(c.LP.Entries)).int(int64(c.LP.Ways)).int(int64(c.LP.Tau)).
		int(int64(c.SDCDirEntriesPerCore)).int(int64(c.SDCDirWays)).int(c.DirLatency).
		str(c.Prefetchers).int(c.BranchMissPenalty).int(int64(c.VictimEntries)).bool(c.LPAdaptive)
	d := &c.DRAM
	e = e.int(int64(d.Banks)).int(int64(d.RowBytes)).int(d.TRP).int(d.TRCD).int(d.TCAS).int(d.BurstCycles).
		int(int64(math.Float64bits(d.CPUFreqMHz))).int(int64(math.Float64bits(d.BusFreqMHz))).
		int(int64(c.DRAMChannels)).
		int(c.Warmup).int(c.Measure).int(c.EpochInterval).
		bool(c.FlightRecorder).int(c.FRInterval).int(int64(c.CheckLevel)).bool(c.BreakSDCDirInval)
	p := &c.Sampling
	return e.int(p.Period).int(p.SampleLen).int(p.Offset).int(p.DetailWarm).bool(p.MisWarm).
		int(c.Quantum)
}
