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
// and everything the samples then measure. The result hashes were
// captured on commit 7360992 — the parent of the change that pointed the
// warm walk at the detailed component transitions — before any edit to
// the walk, so a passing run proves that change (and any later one) left
// warm state and sampled results untouched. The state hashes date from
// the move of the payload to store.Marshal: they were captured on commit
// 6a6dc5c with nothing added but read-only component accessors and the
// warmState encoder. A deliberate change to either needs a StateVersion
// bump and new hashes.
func TestWarmStateFingerprint(t *testing.T) {
	want := map[string][2]string{
		"pr/Baseline (bench-scale)": {"83c0b53960a38f0870509df83459ffc417389f0b947dffd2a3005f5a5c47d465", "758354bb5e971644543cd0451eaf7bf5bbedaecec32ab92b0b38fdd06d3613bd"},
		"pr/SDC+LP":                 {"6e20a1ffc165eac6d7dc2ac02eaaf21b925296005632f9c9232b59239c55f520", "f42537efa3d814ae0699c88affbcc192d7b5802607428d988483ebf5d65632ce"},
		"pr/LP bypass (no SDC)":     {"ee9cd39bf56b0007f3be77d02121cee609b20bfe645edb3ee0c37cd87c1dcbad", "12d251fccddb8fc311f38cb218a55f5d1e27a2d353c90c2e77c8047b076488a0"},
		"pr/Expert":                 {"0c2b52ce3bf6926455f845318fab2d9495487d0b807b2210f50d31ca6ef607db", "46e21b5e55b3d3a82c22cc3707eb9dff7ddaab8bb48a3e425ee1c41d6521b9b0"},
		"pr/SDC+LP adaptive-tau":    {"6e20a1ffc165eac6d7dc2ac02eaaf21b925296005632f9c9232b59239c55f520", "f42537efa3d814ae0699c88affbcc192d7b5802607428d988483ebf5d65632ce"},
		"pr/VictimCache-16":         {"f6ba01c0e33f6290d1c99031117a8e00e9b3608d4083fe9f6648367ef6e1d62c", "f4edad044977c08a78815414baa91360e813fe842483aa63487373e270641cd4"},
		"pr/Distill":                {"02cd707ba4d8cc00c86e17bd27a588fbb1640390ab99258e781e5c351043606c", "be707df6bfb747c979f21a6c0b428e91825133b17a5d0ac75d1ba9ad29bfe3dc"},
		"pr/SRRIP":                  {"08bae00de7cc6c68757178bca4c907900aa55cbb3780f738c2dbb074520cca58", "8bc3d6244389f1b4a122a5ec6252b531fa41e27eb59462f60340915eb1d51b27"},
		"pr/T-OPT":                  {"c463d2eb5aba150904d13191b46f785487ccf10f5150aebefdee3568c33284f7", "0348a4103acb1f4e7a51d32b527c9b6875c2c62492cd5e8fa738abcb4b611c56"},
		"pr/SDC+LP/pf=stride":       {"6e20a1ffc165eac6d7dc2ac02eaaf21b925296005632f9c9232b59239c55f520", "43b2b055cb7ea0678f5f98bf436fc1f8846b1c8c11e950da20af3acf425ec992"},
		"cc/Baseline (bench-scale)": {"7098ea94037c7ea3e4b2c5f5f630c810b3ca9052ea5971268dc466827de17e56", "8e87795d706c42f675ed6cde0a06f0d33406f0d758ead328e9711b3835dce888"},
		"cc/SDC+LP":                 {"5f8ac3bb3375655864993d4a4f970efc2a9e158c8d1a8fa8309f1b80b0c0e895", "ea620f38db4f50528db4413701f7284e4808eaf144fb14f5aea3661b8d3f54fc"},
		"cc/LP bypass (no SDC)":     {"4fa10d1a0e27e526033725756e9b111edc194e66da1037717c60a97a76edc5ae", "3e3516b8bb969382225ea97cb359c66d62bc0873294d65fe83ec7aff6ed42e02"},
		"cc/Expert":                 {"04f4560e5c70394e397fe339b1e7a6aefa678a6b767e89b1398327a84ca435e7", "3740062ed748d0607455b921c7e52398ea94ece041ae0f15ab0bc316712da9c6"},
		"cc/SDC+LP adaptive-tau":    {"5f8ac3bb3375655864993d4a4f970efc2a9e158c8d1a8fa8309f1b80b0c0e895", "6972922298834af2a9b8d2e01c96ea2706d32d83c9abce59d0e3dfb8a423a51e"},
		"cc/VictimCache-16":         {"dc1ddc7be42242c9152395f878094b4f93eeef8e7c251e367f336796be1f6109", "d4a6d90b5f40a9c27aa398c4ea376d11d3d902866b42818f414f3622ead17570"},
		"cc/Distill":                {"016f5c12c899bee2fb27f2b1dc48a2bd365f119b42f53dd17cb00e5d2f771177", "19ea2947f037fb0587527ac477b4c4698a31ee1bfed8ccb26d7c866ac4fa7190"},
		"cc/SRRIP":                  {"ddd93dff14cc5941821ad86e45de8260bb4876d021377bc5b990717cfae234b1", "a3a292a9f44da0589e9b4a65575633f833bd534c76f1cec84f1b2885ba92bb69"},
		"cc/T-OPT":                  {"91ba344cf717fbc81900473f26856d366c02e1d2bf68bfb67c56c4b0513104ba", "7e245e4e60174123edf21941e8e9101c05da6baa3325800d2a926df93350694b"},
		"cc/SDC+LP/pf=stride":       {"5f8ac3bb3375655864993d4a4f970efc2a9e158c8d1a8fa8309f1b80b0c0e895", "dc13411360e399bd8f51663dde302adbaac5b8c2e5f9562e6a7e6cd7b1ca1950"},
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

// TestWarmStateFieldsExported walks warmState's type tree. The codec
// skips unexported fields without a word, so a component state with one
// would silently drop it from every checkpoint.
func TestWarmStateFieldsExported(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s (%s) is unexported: the codec would drop it", path, f.Name, typ)
				}
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(warmState{}), "warmState")
	if len(seen) < 6 {
		t.Fatalf("walked %d struct types; warmState's tree has more", len(seen))
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
