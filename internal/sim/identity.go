package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"graphmem/internal/cache"
)

// WallClockOnly lists the Config fields (dotted paths) that affect how
// fast a run executes and never what it computes: results are identical
// at any WeaveWorkers, and a restored warm-up is byte-identical to a
// re-warmed one, whatever store and scope addressed it. They are the
// only fields AppendIdentity omits; the harness's coverage test fails
// for any other field a perturbation of which leaves the identity
// unchanged.
var WallClockOnly = []string{"Sampling.Store", "Sampling.Scope", "WeaveWorkers"}

// WarmIrrelevant lists the Config fields WarmKey omits: everything that
// acts only after the functional warm-up has ended or only on timing —
// display names, latencies and DRAM timings, the core, MSHR counts
// (presence stays: an idle register file is part of the payload), the
// measured window, the sampling schedule and every observation mode —
// so a sweep varying only those shares one warm-up. The same coverage
// test holds WarmKey to this list.
var WarmIrrelevant = []string{
	"Name", "CPU.Width", "CPU.ROB", "CPU.ExecLatency", "CPU.BranchMissPenalty",
	"L1D.Name", "L1D.Latency", "L1D.MSHRs", "L2.Name", "L2.Latency", "L2.MSHRs",
	"LLCLatency", "LLCMSHRs", "SDC.Name", "SDC.Latency", "SDC.MSHRs",
	"DirLatency",
	"DRAM.TRP", "DRAM.TRCD", "DRAM.TCAS", "DRAM.BurstCycles", "DRAM.CPUFreqMHz", "DRAM.BusFreqMHz",
	"Measure", "EpochInterval", "FlightRecorder", "FRInterval", "CheckLevel", "BreakSDCDirInval",
	"Sampling.Period", "Sampling.SampleLen", "Sampling.Offset", "Sampling.DetailWarm", "Sampling.Store",
	"Quantum", "WeaveWorkers",
}

// identity is an append-style canonical encoder: varints (self-
// delimiting, and short — the digest's cost is its input's length) and
// length-prefixed strings, so no two field sequences share bytes. One
// field walk serves both identities; warm selects the checkpoint
// address, which leaves the WarmIrrelevant fields out.
type identity struct {
	b    []byte
	warm bool
}

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

// late encodes a field that cannot reach the warm state; lateStr and
// lateBool likewise.
func (e identity) late(v int64) identity {
	if e.warm {
		return e
	}
	return e.int(v)
}

func (e identity) lateStr(s string) identity {
	if e.warm {
		return e
	}
	return e.str(s)
}

func (e identity) lateBool(v bool) identity {
	if e.warm {
		return e
	}
	return e.bool(v)
}

// mshrs encodes a register-file size: the count times misses, only its
// presence shapes the warm payload.
func (e identity) mshrs(n int) identity {
	if e.warm {
		return e.bool(n > 0)
	}
	return e.int(int64(n))
}

// cache encodes one cache.Config; the replacement policy enters by its
// concrete type name (nil, the LRU default, as the empty string).
func (e identity) cache(c *cache.Config) identity {
	e = e.lateStr(c.Name).int(int64(c.SizeBytes)).int(int64(c.Ways)).late(c.Latency).mshrs(c.MSHRs)
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
// included, everything but WallClockOnly. Two runs compute the same
// result exactly when their encodings are equal, whatever the configs'
// Names. A new Config field is either appended in fields (bumping
// identityFormat) or listed in WallClockOnly.
func (c *Config) AppendIdentity(b []byte, scope ...string) []byte {
	return c.fields(identity{b: b}, scope).b
}

// WarmKey is the checkpoint-store address of c's functional warm-up on
// the named workload: a digest of the same field walk with the
// WarmIrrelevant fields left out, scoped — as a RunSpec is by profile
// and workload — by Sampling.Scope and the workload name, so neither a
// timing-only sweep misses nor another input's warm-up hits.
func (c *Config) WarmKey(workload string) string {
	var scratch [512]byte
	sum := sha256.Sum256(c.fields(identity{b: scratch[:0], warm: true}, []string{"warm", c.Sampling.Scope, workload}).b)
	return hex.EncodeToString(sum[:16])
}

// fields is the one field walk behind both identities.
func (c *Config) fields(e identity, scope []string) identity {
	e = e.int(identityFormat).int(StateVersion).int(int64(len(scope)))
	for _, s := range scope {
		e = e.str(s)
	}
	// Format 1 was laid out when the branch-miss penalty, the L2's
	// distillation and the LLC policy each had a top-level Config field
	// (and the penalty a second one in CPU). Their values stay in those
	// slots, and the CPU and L2 ones encode as zero, so no key moves.
	l2 := c.L2
	l2.DistillWOCWays = 0
	p := c.LLCPolicy
	e = e.lateStr(c.Name).int(int64(c.Cores)).
		late(int64(c.CPU.Width)).late(int64(c.CPU.ROB)).late(c.CPU.ExecLatency).late(0).
		cache(&c.L1D).cache(&l2).
		int(int64(c.LLCPerCoreBytes)).int(int64(c.LLCWays)).late(c.LLCLatency).mshrs(c.LLCMSHRs).
		bool(p.oracled()).bool(p == LLCSRRIP).bool(p == LLCPOPT).distill(c.L2.DistillWOCWays).
		int(int64(c.Routing)).cache(&c.SDC).
		int(int64(c.LP.Entries)).int(int64(c.LP.Ways)).int(int64(c.LP.Tau)).
		int(int64(c.SDCDirEntriesPerCore)).int(int64(c.SDCDirWays)).late(c.DirLatency).
		str(c.Prefetchers).late(c.CPU.BranchMissPenalty).int(int64(c.VictimEntries)).bool(c.LPAdaptive)
	d := &c.DRAM
	e = e.int(int64(d.Banks)).int(int64(d.RowBytes)).late(d.TRP).late(d.TRCD).late(d.TCAS).late(d.BurstCycles).
		late(int64(math.Float64bits(d.CPUFreqMHz))).late(int64(math.Float64bits(d.BusFreqMHz))).
		int(int64(c.DRAMChannels)).
		int(c.Warmup).late(c.Measure).late(c.EpochInterval).
		lateBool(c.FlightRecorder).late(c.FRInterval).late(int64(c.CheckLevel)).lateBool(c.BreakSDCDirInval)
	sp := &c.Sampling
	return e.late(sp.Period).late(sp.SampleLen).late(sp.Offset).late(sp.DetailWarm).bool(sp.MisWarm).
		late(c.Quantum)
}
