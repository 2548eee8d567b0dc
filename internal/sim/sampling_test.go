package sim

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"graphmem/internal/store"
)

// sampledCfg is the schedule the sampling tests run under: the checked
// bench-scale machine with ~20 samples in a 1M-instruction window.
func sampledCfg() Config {
	return TableI(1).BenchScale().WithWindows(200_000, 1_000_000).
		WithSampling(50_000, 5_000, 10_000)
}

// TestSamplingOffIsBitIdentical pins the zero-cost contract: with the
// sampling config at its zero value, results are deterministic, carry
// no estimate, and the run manifest serializes without any sampling
// field — byte-identical to what the simulator produced before the
// sampler existed. (The harness golden tests pin the report bytes
// themselves; this covers the result and manifest shapes.)
func TestSamplingOffIsBitIdentical(t *testing.T) {
	cfg := TableI(1).BenchScale().WithWindows(200_000, 1_000_000)
	a := RunSingleCore(cfg, kronWorkload(t, "pr", 19))
	b := RunSingleCore(cfg, kronWorkload(t, "pr", 19))
	if !reflect.DeepEqual(a, b) {
		t.Error("unsampled runs of the same config are not bit-identical")
	}
	if a.Sampling != nil {
		t.Error("unsampled run carries a sampling estimate")
	}
	blob, err := json.Marshal(cfg.ManifestInfo())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "sample") {
		t.Errorf("unsampled manifest config leaks sampling fields: %s", blob)
	}
}

// TestCheckpointRoundTrip pins the warm-up checkpoint's byte-identity
// contract: a run that restores its warm-up from the store produces
// exactly the counters and estimate of the run that captured it — and
// of a run that never touched a store at all.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := sampledCfg()
	plain := RunSingleCore(cfg, kronWorkload(t, "pr", 19))

	st, err := store.Open(t.TempDir(), ResultFraming())
	if err != nil {
		t.Fatal(err)
	}
	stored := cfg.WithWarmStore(st, "")
	miss := RunSingleCore(stored, kronWorkload(t, "pr", 19))
	hit := RunSingleCore(stored, kronWorkload(t, "pr", 19))
	if m, h := st.Misses(), st.Hits(); m != 1 || h != 1 {
		t.Fatalf("store saw %d misses / %d hits; want 1 / 1", m, h)
	}
	if miss.Sampling == nil || miss.Sampling.CheckpointHit {
		t.Error("capturing run should report a checkpoint miss")
	}
	if hit.Sampling == nil || !hit.Sampling.CheckpointHit {
		t.Error("restored run should report a checkpoint hit")
	}

	if !reflect.DeepEqual(plain.Stats, miss.Stats) {
		t.Error("capturing run's counters differ from the store-free run's")
	}
	if !reflect.DeepEqual(miss.Stats, hit.Stats) {
		t.Error("restored run's counters differ from the capturing run's")
	}
	// The estimates are identical except for the hit marker itself.
	h := *hit.Sampling
	h.CheckpointHit = false
	if !reflect.DeepEqual(*miss.Sampling, h) {
		t.Errorf("restored estimate diverged:\n miss %+v\n hit  %+v", *miss.Sampling, *hit.Sampling)
	}
}

// TestCheckpointRejectsDamagedFiles pins the store's failure mode end
// to end: a truncated checkpoint and a stale-version checkpoint are
// both ordinary misses — the run silently re-warms, overwrites the bad
// file, and still produces bit-identical counters.
func TestCheckpointRejectsDamagedFiles(t *testing.T) {
	cfg := sampledCfg()
	st, err := store.Open(t.TempDir(), ResultFraming())
	if err != nil {
		t.Fatal(err)
	}
	stored := cfg.WithWarmStore(st, "")
	first := RunSingleCore(stored, kronWorkload(t, "pr", 19))

	// Find the committed file and damage it two ways.
	entries, err := os.ReadDir(st.Dir())
	if err != nil || len(entries) != 1 {
		t.Fatalf("store dir: %v entries, err %v", len(entries), err)
	}
	path := st.Dir() + "/" + entries[0].Name()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, bad := range map[string][]byte{
		"truncated":     good[:len(good)/2],
		"stale-version": append(append([]byte{}, good[:8]...), append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, good[12:]...)...),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		missesBefore := st.Misses()
		res := RunSingleCore(stored, kronWorkload(t, "pr", 19))
		if st.Misses() != missesBefore+1 {
			t.Errorf("%s checkpoint was not treated as a miss", name)
		}
		if res.Sampling.CheckpointHit {
			t.Errorf("%s checkpoint produced a hit", name)
		}
		if !reflect.DeepEqual(first.Stats, res.Stats) {
			t.Errorf("%s recovery produced different counters", name)
		}
	}
	// The re-warm rewrote a good file: the next run hits again.
	res := RunSingleCore(stored, kronWorkload(t, "pr", 19))
	if !res.Sampling.CheckpointHit {
		t.Error("store did not recover a usable checkpoint after damage")
	}
}

// TestForeignWarmPayloadIsAMiss: an intact entry under a real WarmKey
// that is not a warm state — a run result, or 12 bytes whose first 8
// read as an instruction count just past the warm-up — is an ordinary
// checkpoint miss. The run warms in place, counts what a store-free run
// counts and republishes the key, so the run after it hits.
func TestForeignWarmPayloadIsAMiss(t *testing.T) {
	cfg := sampledCfg()
	free := RunSingleCore(cfg, kronWorkload(t, "pr", 19))
	result, err := EncodeResult(free)
	if err != nil {
		t.Fatal(err)
	}
	count := append(binary.LittleEndian.AppendUint64(nil, uint64(cfg.Warmup+3)), 0xde, 0xad, 0xbe, 0xef)
	for name, payload := range map[string][]byte{"result": result, "count": count} {
		st, err := store.Open(t.TempDir(), ResultFraming())
		if err != nil {
			t.Fatal(err)
		}
		stored := cfg.WithWarmStore(st, "")
		_, commit := st.Acquire(stored.WarmKey(kronWorkload(t, "pr", 19).Name))
		if err := commit(payload); err != nil {
			t.Fatal(err)
		}
		hits, misses := st.Hits(), st.Misses()
		res := RunSingleCore(stored, kronWorkload(t, "pr", 19))
		if res.Sampling.CheckpointHit || st.Hits() != hits || st.Misses() != misses+1 {
			t.Errorf("%s payload: hit %v, store hits %d→%d misses %d→%d; want a miss",
				name, res.Sampling.CheckpointHit, hits, st.Hits(), misses, st.Misses())
		}
		if !reflect.DeepEqual(free.Stats, res.Stats) {
			t.Errorf("%s payload: counters differ from the store-free run's", name)
		}
		res = RunSingleCore(stored, kronWorkload(t, "pr", 19))
		if !res.Sampling.CheckpointHit || !reflect.DeepEqual(free.Stats, res.Stats) {
			t.Errorf("%s payload: the republished checkpoint did not serve (hit %v)", name, res.Sampling.CheckpointHit)
		}
	}
}

// TestMisWarmTripsErrorGate is the CI gate's self-check: a sampler
// whose functional warming is deliberately broken (MisWarm counts
// instructions but touches nothing, so samples run against cold
// structures) must drift far outside the 3% tolerance the sampled-sim
// gate enforces — proving the gate can actually catch a mis-warmed
// sampler, not just bless a correct one.
func TestMisWarmTripsErrorGate(t *testing.T) {
	// cc is the matrix cell most sensitive to warming: with MisWarm its
	// IPC and L1 MPKI both drift >4% (pr, whose working set thrashes the
	// caches regardless, hides cold-start on the L1 — its drift shows up
	// at the L2/LLC instead).
	base := TableI(1).BenchScale().WithWindows(200_000, 1_000_000)
	full := RunSingleCore(base, kronWorkload(t, "cc", 19))

	bad := sampledCfg()
	bad.Sampling.MisWarm = true
	res := RunSingleCore(bad, kronWorkload(t, "cc", 19))
	if res.Sampling == nil {
		t.Fatal("mis-warmed run produced no estimate")
	}
	ipcErr := relErrOf(res.Sampling.IPC.Mean, full.Stats.IPC())
	mpkiErr := relErrOf(res.Sampling.L1DemandMPKI.Mean, full.Stats.L1DemandMPKI())
	if ipcErr <= 0.03 && mpkiErr <= 0.03 {
		t.Errorf("mis-warmed sampler stayed inside the gate: IPC err %.1f%%, L1 MPKI err %.1f%%",
			100*ipcErr, 100*mpkiErr)
	}
}

// TestSampledEstimateWithinTolerance validates the estimator at test
// scale: one cell of the CI gate's matrix (pr/kron on the baseline),
// sampled with the gate's pr plan, lands within tolerance of the full
// detailed run. The full config×workload matrix is validated against
// committed references by cmd/gmsample (the sampled-sim CI job).
func TestSampledEstimateWithinTolerance(t *testing.T) {
	base := TableI(1).BenchScale().WithWindows(200_000, 2_000_000)
	full := RunSingleCore(base, kronWorkload(t, "pr", 19))

	sampled := RunSingleCore(base.WithSampling(65_000, 5_000, 13_000), kronWorkload(t, "pr", 19))
	e := sampled.Sampling
	if e == nil || e.Samples < 10 {
		t.Fatalf("estimate too thin: %+v", e)
	}
	if re := relErrOf(e.IPC.Mean, full.Stats.IPC()); re > 0.03 {
		t.Errorf("IPC: sampled %.4f vs full %.4f (err %.1f%%)", e.IPC.Mean, full.Stats.IPC(), 100*re)
	}
	if re := relErrOf(e.L1DemandMPKI.Mean, full.Stats.L1DemandMPKI()); re > 0.03 {
		t.Errorf("L1 MPKI: sampled %.2f vs full %.2f (err %.1f%%)",
			e.L1DemandMPKI.Mean, full.Stats.L1DemandMPKI(), 100*re)
	}
	if frac := sampled.Config; frac == "" {
		t.Error("result lost its config name")
	}
	if e.DetailedInstructions >= full.Stats.Instructions/2 {
		t.Errorf("sampling simulated %d of %d instructions in detail; expected a large reduction",
			e.DetailedInstructions, full.Stats.Instructions)
	}
}

func relErrOf(est, ref float64) float64 {
	d := est - ref
	if d < 0 {
		d = -d
	}
	if ref == 0 {
		return d
	}
	if ref < 0 {
		ref = -ref
	}
	return d / ref
}
