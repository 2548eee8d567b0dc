package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"graphmem/internal/sim"
)

// RunSpec is one fully specified run: the effective machine config (the
// profile's windows and the workbench's check level and sampling plan
// folded in), the workload, and the run's identity. The identity is
// structural — a digest of sim.Config.AppendIdentity's canonical
// encoding of every result-affecting field, scoped by run kind, profile
// and workload — so two configs that differ anywhere never share a key,
// whatever their Name, and a new Config field cannot be forgotten (the
// coverage test walks the struct). It is derived once, here, and is the
// in-memory memo key, the result store's content address (StoreKey),
// gmserved's "key" field and the manifest's run_key.
//
// A profile name fixes the graph generators with their seeds and sizes,
// so (profile, workload) identifies the simulated input; generator or
// simulator behaviour changes must bump sim.StateVersion, which enters
// the digest and orphans every stored entry.
type RunSpec struct {
	cfg sim.Config
	id  WorkloadID
	key string
}

// Run kinds: namespaces of the key, so a Fig. 3 stride/DRAM profile or
// an isolated-IPC run never aliases the simulation point of the same
// config and workload.
const (
	kindResult   = "result"
	kindFig3     = "fig3"
	kindIsolated = "iso"
)

var keyVersion = "|v" + strconv.Itoa(sim.StateVersion) + "|"

// NewRunSpec derives the spec of a single-core simulation point. cfg
// must be the effective config — Workbench.Spec folds the workbench's
// knobs in first.
func NewRunSpec(cfg sim.Config, id WorkloadID, profile string) RunSpec {
	return newRunSpec(kindResult, cfg, id, profile)
}

func newRunSpec(kind string, cfg sim.Config, id WorkloadID, profile string) RunSpec {
	var scratch [1024]byte
	sum := sha256.Sum256(cfg.AppendIdentity(scratch[:0], kind, profile, id.Kernel, id.Graph))
	k := append(scratch[:0], "gm"...)
	k = append(append(k, kind...), keyVersion...)
	k = append(append(k, profile...), '|')
	k = append(append(append(k, id.Kernel...), '.'), id.Graph...)
	k = append(append(append(k, '|'), cfg.Name...), '|')
	return RunSpec{cfg: cfg, id: id, key: string(hex.AppendEncode(k, sum[:16]))}
}

// Key is the run's readable identity, e.g.
// "gmresult|v1|bench|pr.kron|SDC+LP|<32 hex digits>": kind, simulator
// state version, profile, workload and config name for the reader, the
// digest for uniqueness.
func (s RunSpec) Key() string { return s.key }

// StoreKey is the run's content address in the disk store: the digest
// alone, which keeps file names short and uniform.
func (s RunSpec) StoreKey() string { return s.key[len(s.key)-32:] }

// Spec derives the spec of cfg on id as this workbench would run it.
func (wb *Workbench) Spec(cfg sim.Config, id WorkloadID) RunSpec {
	return NewRunSpec(wb.configured(cfg), id, wb.Profile.Name)
}
