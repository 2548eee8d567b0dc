package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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
