package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
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

// warmFingerprint runs one sampled configuration and hashes (a) the
// checkpoint payload at the warm-up end and (b) the sampled result with
// its per-sample counter deltas.
func warmFingerprint(t *testing.T, cfg Config, kernel string) (state, result string) {
	t.Helper()
	w := kronWorkload(t, kernel, 16)
	sys := NewSystem(cfg, []Workload{w})
	c := sys.cores[0]
	c.ckptCommit = func(p []byte) error {
		h := sha256.Sum256(p)
		state = hex.EncodeToString(h[:])
		return nil
	}
	res := sys.RunCore0(w)
	blob, err := json.Marshal(struct {
		Stats    stats.CoreStats
		Estimate *sample.Estimate
		Deltas   []stats.CoreStats
	}{res.Stats, res.Sampling, c.sampleDeltas})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(blob)
	return state, hex.EncodeToString(h[:])
}

// TestWarmStateFingerprint pins what functional warming builds, byte
// for byte, on every warm arm: the checkpoint payload at the warm-up end
// and everything the samples then measure. The hashes were captured on
// commit 7360992 — the parent of the change that pointed the warm walk
// at the detailed component transitions — before any edit to the walk,
// so a passing run proves that change (and any later one) left warm
// state and sampled results untouched. A deliberate change to either
// needs a StateVersion bump and new hashes.
func TestWarmStateFingerprint(t *testing.T) {
	want := map[string][2]string{
		"pr/Baseline (bench-scale)": {"64f41e4b8d5b0ae2ec3fcb5bc2ca20a70c4b07435cf4c3ee8bbcacd46ad3963b", "758354bb5e971644543cd0451eaf7bf5bbedaecec32ab92b0b38fdd06d3613bd"},
		"pr/SDC+LP":                 {"862e62fb6522a90992774d9c9cfd88ef4b72ffd26e541e5ecd6371e5358cd85e", "f42537efa3d814ae0699c88affbcc192d7b5802607428d988483ebf5d65632ce"},
		"pr/LP bypass (no SDC)":     {"d2eb96536276440c453aa3de71af6f89262a2d2d65aa6567254aedd02cf36b2d", "12d251fccddb8fc311f38cb218a55f5d1e27a2d353c90c2e77c8047b076488a0"},
		"pr/Expert":                 {"525dae8e05b64e112a7f357b379d549979b2bd741b846f854fac9fe4c0152ea5", "46e21b5e55b3d3a82c22cc3707eb9dff7ddaab8bb48a3e425ee1c41d6521b9b0"},
		"pr/SDC+LP adaptive-tau":    {"862e62fb6522a90992774d9c9cfd88ef4b72ffd26e541e5ecd6371e5358cd85e", "f42537efa3d814ae0699c88affbcc192d7b5802607428d988483ebf5d65632ce"},
		"pr/VictimCache-16":         {"26adfda080fef03f49a5291f1db7e058777abc057dd605d7371de62a97665428", "f4edad044977c08a78815414baa91360e813fe842483aa63487373e270641cd4"},
		"pr/Distill":                {"7a7f7ea42fa58692f6e9d8b4e57ee6f46fde2e2e19ff278ffc399a505fde692f", "be707df6bfb747c979f21a6c0b428e91825133b17a5d0ac75d1ba9ad29bfe3dc"},
		"pr/SRRIP":                  {"b844f3fc7e759fee1c82c1fd8a5e7dcc886bcebb4ff2dbe4acccfc2e3a208624", "8bc3d6244389f1b4a122a5ec6252b531fa41e27eb59462f60340915eb1d51b27"},
		"pr/T-OPT":                  {"5d7c2a27aed34e5e201ab71904b84e82f075e1406f4d9913e82fcb9c24a6b89d", "0348a4103acb1f4e7a51d32b527c9b6875c2c62492cd5e8fa738abcb4b611c56"},
		"pr/SDC+LP/pf=stride":       {"862e62fb6522a90992774d9c9cfd88ef4b72ffd26e541e5ecd6371e5358cd85e", "43b2b055cb7ea0678f5f98bf436fc1f8846b1c8c11e950da20af3acf425ec992"},
		"cc/Baseline (bench-scale)": {"0687dcf798d2883eabd8b441b415357cb47025a03bf21b4e5c46f6c7877bd846", "8e87795d706c42f675ed6cde0a06f0d33406f0d758ead328e9711b3835dce888"},
		"cc/SDC+LP":                 {"2986ed219affabe5119e9db938669cc0ea7172cf794309ecd6b213a285a27dfe", "ea620f38db4f50528db4413701f7284e4808eaf144fb14f5aea3661b8d3f54fc"},
		"cc/LP bypass (no SDC)":     {"1fa11d90fe0cf5df911412eafe393eb174865d8320cf333af0b3c433a296cd78", "3e3516b8bb969382225ea97cb359c66d62bc0873294d65fe83ec7aff6ed42e02"},
		"cc/Expert":                 {"40bd23c535b81cf11c8ee352d871a045167d73b85ec44c3de1cc9a7f726a14a0", "3740062ed748d0607455b921c7e52398ea94ece041ae0f15ab0bc316712da9c6"},
		"cc/SDC+LP adaptive-tau":    {"2986ed219affabe5119e9db938669cc0ea7172cf794309ecd6b213a285a27dfe", "6972922298834af2a9b8d2e01c96ea2706d32d83c9abce59d0e3dfb8a423a51e"},
		"cc/VictimCache-16":         {"ebcebe16bd59dfcf6dc5005cc1087336934525c20851cdc467ff5a9a64180a73", "d4a6d90b5f40a9c27aa398c4ea376d11d3d902866b42818f414f3622ead17570"},
		"cc/Distill":                {"5226605a0cc1a9931d21f1f1a5a1f2926951b7251b58eb8834b5a7537b949a23", "19ea2947f037fb0587527ac477b4c4698a31ee1bfed8ccb26d7c866ac4fa7190"},
		"cc/SRRIP":                  {"0a753ad9bc9c499a7bb12c9ba906fd835cc8c4e22aa945c4811218a58b7168d4", "a3a292a9f44da0589e9b4a65575633f833bd534c76f1cec84f1b2885ba92bb69"},
		"cc/T-OPT":                  {"b62ea6e00f0d5430bce3bd58410f3c499f054db014ab0332d12dae13252e4656", "7e245e4e60174123edf21941e8e9101c05da6baa3325800d2a926df93350694b"},
		"cc/SDC+LP/pf=stride":       {"2986ed219affabe5119e9db938669cc0ea7172cf794309ecd6b213a285a27dfe", "dc13411360e399bd8f51663dde302adbaac5b8c2e5f9562e6a7e6cd7b1ca1950"},
	}
	for _, kernel := range []string{"pr", "cc"} {
		for _, cfg := range warmArms() {
			name := kernel + "/" + cfg.Name
			if cfg.Prefetchers != "" {
				name += "/pf=" + cfg.Prefetchers
			}
			state, result := warmFingerprint(t, cfg, kernel)
			if state == "" {
				t.Errorf("%s: run never reached its warm-up end", name)
				continue
			}
			if w, ok := want[name]; !ok {
				t.Errorf("%s: no pinned hashes; got\n\t%q: {%q, %q},", name, name, state, result)
			} else if got := [2]string{state, result}; got != w {
				t.Errorf("%s: warm state / sampled result changed:\n got  %v\n want %v", name, got, w)
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

// warmView is everything a detailed sample can see of the machine the
// warming built: the checkpoint payload (all tag, recency, predictor,
// directory and row state), the core clocks, and every component
// counter the warm walk's transitions could have moved.
type warmView struct {
	State                         []byte
	Snapshot                      stats.CoreStats
	Cycle, Dispatch               int64
	L1D, Victim, L2, SDC, LLC     stats.CacheStats
	DTLB, STLB                    stats.CacheStats
	Walks                         int64
	LPAverse, LPFriendly, LPMiss  int64
	DirLookups, DirHits, DirEvict int64
	DRAM                          dram.Stats
	Served                        [8]int64
}

// viewAtFirstSample runs sys to the start of its first detailed sample,
// restoring a non-nil payload as RunCore0 does on a store hit.
func viewAtFirstSample(t *testing.T, sys *System, w Workload, payload []byte) warmView {
	t.Helper()
	c := sys.cores[0]
	if payload != nil {
		c.startDrain(payload)
	}
	w.Inst.Run(trace.New(&untilSample{singleSink{c: c}}))
	if c.warmMode != warmOff || c.nextSampleEnd == noEpoch {
		t.Fatal("stream ended before the first sample started")
	}
	v := warmView{
		State: sys.encodeWarmState(), Snapshot: c.snapshotCounters(),
		Cycle: c.cpuCore.Cycle(), Dispatch: c.cpuCore.DispatchCycle(),
		L1D: c.l1d.Stats, L2: c.l2.Stats, LLC: sys.llc.Stats,
		DTLB: c.tlbs.DTLB.Stats, STLB: c.tlbs.STLB.Stats, Walks: c.tlbs.Walks,
		DRAM: sys.dram.TotalStats(), Served: c.served,
	}
	if c.victim != nil {
		v.Victim = c.victim.Stats
	}
	if c.sdc != nil {
		v.SDC = c.sdc.Stats
	}
	if c.lp != nil {
		v.LPAverse, v.LPFriendly, v.LPMiss = c.lp.PredAverse, c.lp.PredFriendly, c.lp.TableMisses
	}
	if d := sys.sdcDir; d != nil {
		v.DirLookups, v.DirHits, v.DirEvict = d.Lookups, d.Hits, d.Evictions
	}
	return v
}

// TestWarmingMovesNoCounters pins the contract samples are measured
// under: functional warming runs the components' own transitions, yet at
// the first sample start every component counter still reads zero, and a
// machine restored from the warm-up checkpoint is indistinguishable —
// state, clocks and counters — from one that warmed in place.
func TestWarmingMovesNoCounters(t *testing.T) {
	for _, cfg := range warmArms() {
		var payload []byte
		warmed := NewSystem(cfg, []Workload{kronWorkload(t, "cc", 16)})
		warmed.cores[0].ckptCommit = func(p []byte) error {
			payload = p
			return nil
		}
		a := viewAtFirstSample(t, warmed, warmed.cores[0].w, nil)
		if payload == nil {
			t.Fatalf("%s: warm-up end published no checkpoint", cfg.Name)
		}
		// Only the retired-instruction counters (which position the
		// windows) may have moved.
		zero := warmView{State: a.State}
		zero.Snapshot.Instructions, zero.Snapshot.MemOps = a.Snapshot.Instructions, a.Snapshot.MemOps
		zero.Snapshot.Loads, zero.Snapshot.Stores = a.Snapshot.Loads, a.Snapshot.Stores
		if !reflect.DeepEqual(a, zero) {
			z := a
			z.State = nil
			t.Errorf("%s: warming moved counters or clocks: %+v", cfg.Name, z)
		}

		restored := NewSystem(cfg, []Workload{kronWorkload(t, "cc", 16)})
		b := viewAtFirstSample(t, restored, restored.cores[0].w, payload)
		if !reflect.DeepEqual(a, b) {
			a.State, b.State = nil, nil
			t.Errorf("%s: restored machine differs from the re-warmed one at the first sample:\n warmed   %+v\n restored %+v", cfg.Name, a, b)
		}
	}
}
