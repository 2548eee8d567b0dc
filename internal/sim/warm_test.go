package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"graphmem/internal/dram"
	"graphmem/internal/sample"
	"graphmem/internal/stats"
	"graphmem/internal/trace"
)

// warmArms are the machine shapes whose functional warming takes a
// different route through warm.go: every routing mode, both LP kinds,
// the victim cache, the distill L2, each non-LRU LLC policy and a
// non-default prefetcher preset.
func warmArms() []Config {
	base := TableI(1).BenchScale().WithWindows(100_000, 400_000).WithSampling(50_000, 5_000, 10_000)
	return []Config{
		base,
		base.WithSDCLP(),
		base.WithBypassOnly(),
		base.WithExpert(),
		base.WithAdaptiveLP(),
		base.WithVictimCache(16),
		base.WithDistill(),
		base.WithRRIP(),
		base.WithTOPT(),
		base.WithSDCLP().WithPrefetchers("stride"),
	}
}

// sampledFingerprint runs one sampled configuration and hashes the
// sampled result with its per-sample counter deltas.
func sampledFingerprint(t *testing.T, cfg Config, kernel string) string {
	t.Helper()
	w := kronWorkload(t, kernel, 16)
	sys := NewSystem(cfg, []Workload{w})
	c := sys.cores[0]
	res := sys.RunCore0(w)
	if res.Sampling == nil || res.Sampling.Samples == 0 {
		t.Fatalf("%s/%s: no detailed sample ran", kernel, cfg.Name)
	}
	blob, err := json.Marshal(struct {
		Stats    stats.CoreStats
		Estimate *sample.Estimate
		Deltas   []stats.CoreStats
	}{res.Stats, res.Sampling, c.sampleDeltas})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:])
}

// TestSampledResultFingerprint pins what functional warming builds, as
// the samples measure it, on every warm arm: the sampled result and its
// per-sample deltas, byte for byte. The hashes were captured on commit
// 7360992 — the parent of the change that pointed the warm walk at the
// detailed component transitions — before any edit to the walk, so a
// passing run proves that change (and any later one) left sampled
// results untouched. A deliberate change needs a StateVersion bump and
// new hashes.
func TestSampledResultFingerprint(t *testing.T) {
	want := map[string]string{
		"pr/Baseline (bench-scale)": "758354bb5e971644543cd0451eaf7bf5bbedaecec32ab92b0b38fdd06d3613bd",
		"pr/SDC+LP":                 "f42537efa3d814ae0699c88affbcc192d7b5802607428d988483ebf5d65632ce",
		"pr/LP bypass (no SDC)":     "12d251fccddb8fc311f38cb218a55f5d1e27a2d353c90c2e77c8047b076488a0",
		"pr/Expert":                 "46e21b5e55b3d3a82c22cc3707eb9dff7ddaab8bb48a3e425ee1c41d6521b9b0",
		"pr/SDC+LP adaptive-tau":    "f42537efa3d814ae0699c88affbcc192d7b5802607428d988483ebf5d65632ce",
		"pr/VictimCache-16":         "f4edad044977c08a78815414baa91360e813fe842483aa63487373e270641cd4",
		"pr/Distill":                "be707df6bfb747c979f21a6c0b428e91825133b17a5d0ac75d1ba9ad29bfe3dc",
		"pr/SRRIP":                  "8bc3d6244389f1b4a122a5ec6252b531fa41e27eb59462f60340915eb1d51b27",
		"pr/T-OPT":                  "0348a4103acb1f4e7a51d32b527c9b6875c2c62492cd5e8fa738abcb4b611c56",
		"pr/SDC+LP/pf=stride":       "43b2b055cb7ea0678f5f98bf436fc1f8846b1c8c11e950da20af3acf425ec992",
		"cc/Baseline (bench-scale)": "8e87795d706c42f675ed6cde0a06f0d33406f0d758ead328e9711b3835dce888",
		"cc/SDC+LP":                 "ea620f38db4f50528db4413701f7284e4808eaf144fb14f5aea3661b8d3f54fc",
		"cc/LP bypass (no SDC)":     "3e3516b8bb969382225ea97cb359c66d62bc0873294d65fe83ec7aff6ed42e02",
		"cc/Expert":                 "3740062ed748d0607455b921c7e52398ea94ece041ae0f15ab0bc316712da9c6",
		"cc/SDC+LP adaptive-tau":    "6972922298834af2a9b8d2e01c96ea2706d32d83c9abce59d0e3dfb8a423a51e",
		"cc/VictimCache-16":         "d4a6d90b5f40a9c27aa398c4ea376d11d3d902866b42818f414f3622ead17570",
		"cc/Distill":                "19ea2947f037fb0587527ac477b4c4698a31ee1bfed8ccb26d7c866ac4fa7190",
		"cc/SRRIP":                  "a3a292a9f44da0589e9b4a65575633f833bd534c76f1cec84f1b2885ba92bb69",
		"cc/T-OPT":                  "7e245e4e60174123edf21941e8e9101c05da6baa3325800d2a926df93350694b",
		"cc/SDC+LP/pf=stride":       "dc13411360e399bd8f51663dde302adbaac5b8c2e5f9562e6a7e6cd7b1ca1950",
	}
	for _, kernel := range []string{"pr", "cc"} {
		for _, cfg := range warmArms() {
			name := kernel + "/" + cfg.Name
			if cfg.Prefetchers != "" {
				name += "/pf=" + cfg.Prefetchers
			}
			got := sampledFingerprint(t, cfg, kernel)
			if w, ok := want[name]; !ok {
				t.Errorf("%s: no pinned hash; got\n\t%q: %q,", name, name, got)
			} else if got != w {
				t.Errorf("%s: sampled result changed:\n got  %s\n want %s", name, got, w)
			}
		}
	}
}

// untilSample feeds records to core 0 until the sampler hands the
// stream to the detailed path for the first time.
type untilSample struct{ singleSink }

func (s *untilSample) Access(r trace.Record) bool {
	return s.c.observe(r) && s.c.warmMode != warmOff
}

// warmView is what warming must leave untouched for the detailed path:
// the core clocks, the page-walk count, DRAM's counters and the
// served-by tally. The component counters (caches, TLBs, LP, SDCDir)
// move during warming; sample deltas are taken between detailed-mode
// snapshots, so they never see it.
type warmView struct {
	Cycle, Dispatch int64
	Walks           int64
	DRAM            dram.Stats
	Served          [8]int64
}

// viewAtFirstSample runs sys to the start of its first detailed sample.
func viewAtFirstSample(t *testing.T, sys *System, w Workload) warmView {
	t.Helper()
	c := sys.cores[0]
	w.Inst.Run(trace.New(&untilSample{singleSink{c: c}}))
	if c.warmMode != warmOff || c.nextSampleEnd == noEpoch {
		t.Fatal("stream ended before the first sample started")
	}
	return warmView{
		Cycle: c.cpuCore.Cycle(), Dispatch: c.cpuCore.DispatchCycle(),
		Walks: c.tlbs.Walks, DRAM: sys.dram.TotalStats(), Served: c.served,
	}
}

// TestWarmingMovesNoCounters pins what functional warming may not move:
// at the first sample start the core clocks, page walks, DRAM counters
// and served-by tally still read zero.
func TestWarmingMovesNoCounters(t *testing.T) {
	for _, cfg := range warmArms() {
		sys := NewSystem(cfg, []Workload{kronWorkload(t, "cc", 16)})
		if a := viewAtFirstSample(t, sys, sys.cores[0].w); a != (warmView{}) {
			t.Errorf("%s: warming moved clocks or counters: %+v", cfg.Name, a)
		}
	}
}
