package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"graphmem/internal/sim"
)

// RunSpec is one fully specified run of any shape: the effective
// machine config (the profile's windows and the workbench's check level
// and sampling plan folded in), the workload of every core slot, and
// the run's identity. A single-core point has one slot; a multi-core
// mix has cfg.Cores of them, and an isolated run ("IPC in isolation on
// the same system", Section IV-D) is simply a mix whose other slots are
// idle (WorkloadID.idle). The identity is structural — a digest of
// sim.Config.AppendIdentity's canonical encoding of every
// result-affecting field, scoped by run kind, profile and the slots'
// workloads — so two configs that differ anywhere never share a key,
// whatever their Name, and a new Config field cannot be forgotten (the
// coverage test walks the struct). It is derived once, here, and is the
// in-memory memo key, the result store's content address (StoreKey),
// gmserved's "key" field, the manifest's run_key and /metrics' key
// label.
//
// A profile name fixes the graph generators with their seeds and sizes,
// so (profile, workload) identifies the simulated input; generator or
// simulator behaviour changes must bump sim.StateVersion, which enters
// the digest and orphans every stored entry.
type RunSpec struct {
	cfg  sim.Config
	ids  []WorkloadID
	kind string
	key  string
}

// Run kinds: namespaces of the key and the shape of the value behind
// it, so a Fig. 3 stride/DRAM profile (a Fig3Result) or a mix (a
// sim.MultiResult) never aliases the simulation point (a sim.Result) of
// the same config and workload.
const (
	kindResult = "result"
	kindFig3   = "fig3"
	kindMix    = "mix"
)

var keyVersion = "|v" + strconv.Itoa(sim.StateVersion) + "|"

// NewRunSpec derives the spec of a single-core simulation point. cfg
// must be the effective config — Workbench.Spec folds the workbench's
// knobs in first.
func NewRunSpec(cfg sim.Config, id WorkloadID, profile string) RunSpec {
	return newRunSpec(kindResult, cfg, []WorkloadID{id}, profile)
}

// newRunSpec derives the spec of cfg on ids, one per core slot from
// slot 0; slots ids does not reach are idle (a full ids is kept as
// passed, not copied).
func newRunSpec(kind string, cfg sim.Config, ids []WorkloadID, profile string) RunSpec {
	if len(ids) != cfg.Cores {
		ids = append(make([]WorkloadID, 0, cfg.Cores), ids...)[:cfg.Cores]
	}
	var scopeBuf [2 + 2*mixCores]string // on the stack up to a mix's width
	scope := append(scopeBuf[:0], kind, profile)
	for _, id := range ids {
		scope = append(scope, id.Kernel, id.Graph)
	}
	var scratch [1024]byte
	sum := sha256.Sum256(cfg.AppendIdentity(scratch[:0], scope...))
	k := append(scratch[:0], "gm"...)
	k = append(append(k, kind...), keyVersion...)
	k = append(append(k, profile...), '|')
	k = append(appendMixName(k, ids), '|')
	k = append(append(k, cfg.Name...), '|')
	return RunSpec{cfg: cfg, ids: ids, kind: kind, key: string(hex.AppendEncode(k, sum[:16]))}
}

// appendMixName appends the slots' workload names joined by "+", idle
// slots as "-": "pr.kron", "pr.kron+cc.urand+-+-".
func appendMixName(b []byte, ids []WorkloadID) []byte {
	for i, id := range ids {
		if i > 0 {
			b = append(b, '+')
		}
		if id.idle() {
			b = append(b, '-')
		} else {
			b = append(append(append(b, id.Kernel...), '.'), id.Graph...)
		}
	}
	return b
}

// Key is the run's readable identity, e.g.
// "gmresult|v1|bench|pr.kron|SDC+LP|<32 hex digits>": kind, simulator
// state version, profile, workloads and config name for the reader, the
// digest for uniqueness.
func (s RunSpec) Key() string { return s.key }

// StoreKey is the run's content address in the disk store: the digest
// alone, which keeps file names short and uniform.
func (s RunSpec) StoreKey() string { return s.key[len(s.key)-32:] }

// Spec derives the spec of cfg on ids as this workbench would run it,
// under the profile's single-core windows: a simulation point on a
// one-core machine, else a mix with one workload per core slot.
func (wb *Workbench) Spec(cfg sim.Config, ids ...WorkloadID) RunSpec {
	kind := kindResult
	if cfg.Cores > 1 {
		kind = kindMix
	}
	return newRunSpec(kind, wb.configured(cfg), ids, wb.Profile.Name)
}
