package harness

import (
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/obs"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
)

// TestRunKeyCanary pins the run-key format and its digest. The canary
// is deliberate: changing the canonical encoding (sim.AppendIdentity's
// field list or format version), the scope, or sim.StateVersion
// re-addresses every existing store, which must be a conscious,
// test-acknowledged decision.
func TestRunKeyCanary(t *testing.T) {
	cfg := sim.TableI(1).WithSDCLP().WithWindows(4_000_000, 4_000_000)
	id := WorkloadID{Kernel: "pr", Graph: "kron"}
	s := NewRunSpec(cfg, id, "bench")

	// Valid while sim.StateVersion == 1 and the identity format is 1.
	const want = "gmresult|v1|bench|pr.kron|SDC+LP|33c9d6247bc78eb7f0321df4a8f1bcd7"
	if got := s.Key(); got != want {
		t.Errorf("Key = %q, want %q (encoding, scope or StateVersion changed?)", got, want)
	}
	if got := s.StoreKey(); got != want[len(want)-32:] || !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(got) {
		t.Errorf("StoreKey = %q, want the key's 32-hex-digit digest", got)
	}

	// Every scope axis moves the digest, and the run kinds are disjoint
	// namespaces over one (config, workload, profile).
	others := []RunSpec{
		NewRunSpec(cfg, id, "small"),
		NewRunSpec(cfg, WorkloadID{Kernel: "pr", Graph: "urand"}, "bench"),
		NewRunSpec(cfg, WorkloadID{Kernel: "cc", Graph: "kron"}, "bench"),
		NewRunSpec(cfg.WithWindows(8_000_000, 4_000_000), id, "bench"),
		newRunSpec(kindFig3, cfg, []WorkloadID{id}, "bench"),
		newRunSpec(kindMix, cfg, []WorkloadID{id}, "bench"),
	}
	for i, o := range others {
		if o.StoreKey() == s.StoreKey() {
			t.Errorf("perturbed spec %d (%s) collides with the canary", i, o.Key())
		}
	}
	if k := others[4].Key(); !strings.HasPrefix(k, "gmfig3|v1|bench|pr.kron|SDC+LP|") {
		t.Errorf("fig3 key %q does not name its kind", k)
	}

	// Wall-clock-only fields share the key: results are identical at any
	// worker count, and restored warm-ups equal re-warmed ones.
	bw := sim.TableI(4).WithSDCLP().WithBoundWeave(0, 1)
	k1 := NewRunSpec(bw, id, "bench").Key()
	bw.WeaveWorkers = 8
	if k8 := NewRunSpec(bw, id, "bench").Key(); k1 != k8 {
		t.Errorf("-wj 1 and -wj 8 must share a key: %q vs %q", k1, k8)
	}
	if k1 == NewRunSpec(sim.TableI(4).WithSDCLP(), id, "bench").Key() {
		t.Error("bound–weave and serial-engine runs share a key; the quantum changes counters")
	}
}

// perturb changes one leaf value in place to something its zero value
// and its Table I value both differ from.
func perturb(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 3)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Interface:
		v.Set(reflect.ValueOf(cache.SRRIP{}))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("%s: no perturbation for kind %s — teach this test and sim.AppendIdentity about it", path, v.Kind())
	}
}

// TestRunSpecCoversEveryConfigField walks sim.Config recursively,
// perturbs each leaf, and fails unless the run identity moves or the
// field is listed in sim.WallClockOnly — so a Config field added later
// cannot be silently left out of memo and store keys. The checkpoint
// address (sim.Config.WarmKey) is held to sim.WarmIrrelevant the same
// way: it is the same field walk with a second exclusion list.
func TestRunSpecCoversEveryConfigField(t *testing.T) {
	id := WorkloadID{Kernel: "pr", Graph: "kron"}
	base := sim.TableI(1)
	baseKey := NewRunSpec(base, id, "bench").Key()
	baseWarm := base.WarmKey(id.String())
	if baseWarm == base.WarmKey("cc.kron") || len(baseWarm) != 32 {
		t.Errorf("warm key %q: want 32 hex digits that name the workload", baseWarm)
	}

	var leaves, excluded, warmExcluded []string
	var walk func(path string, index []int, typ reflect.Type)
	walk = func(path string, index []int, typ reflect.Type) {
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				p := f.Name
				if path != "" && !f.Anonymous {
					p = path + "." + f.Name
				} else if f.Anonymous {
					p = path // embedded sample.Plan's fields read as Sampling.Period
				}
				walk(p, append(slices.Clone(index), i), f.Type)
			}
			return
		}
		leaves = append(leaves, path)
		cfg := base
		perturb(t, path, reflect.ValueOf(&cfg).Elem().FieldByIndex(index))
		moved := NewRunSpec(cfg, id, "bench").Key() != baseKey
		switch wallClock := slices.Contains(sim.WallClockOnly, path); {
		case wallClock && moved:
			t.Errorf("%s is listed wall-clock-only but moves the run key", path)
		case wallClock:
			excluded = append(excluded, path)
		case !moved:
			t.Errorf("%s does not move the run key: append it in sim.Config.AppendIdentity or list it in sim.WallClockOnly", path)
		}
		moved = cfg.WarmKey(id.String()) != baseWarm
		switch late := slices.Contains(sim.WarmIrrelevant, path); {
		case late && moved:
			t.Errorf("%s is listed warm-irrelevant but moves the checkpoint key", path)
		case late:
			warmExcluded = append(warmExcluded, path)
		case !moved:
			t.Errorf("%s does not move the checkpoint key: encode it in sim.Config's field walk or list it in sim.WarmIrrelevant", path)
		}
	}
	walk("", nil, reflect.TypeOf(base))

	if len(leaves) < 60 {
		t.Errorf("walked only %d leaf fields of sim.Config: %v", len(leaves), leaves)
	}
	if !slices.Equal(excluded, sim.WallClockOnly) {
		t.Errorf("excluded fields found %v, sim.WallClockOnly lists %v (a stale entry?)", excluded, sim.WallClockOnly)
	}
	if !slices.Equal(warmExcluded, sim.WarmIrrelevant) {
		t.Errorf("warm-excluded fields found %v, sim.WarmIrrelevant lists %v (a stale entry, or out of struct order?)", warmExcluded, sim.WarmIrrelevant)
	}
	for _, want := range []string{"CPU.ROB", "L1D.Policy", "LP.Tau", "DRAM.BusFreqMHz", "Sampling.Period", "Sampling.MisWarm", "FRInterval", "CheckLevel"} {
		if !slices.Contains(leaves, want) {
			t.Errorf("walk never reached %s: %v", want, leaves)
		}
	}
}

// TestSameNameDifferentMachine is the collision the string-suffix keys
// had: two configs sharing a Name but differing in a field must get
// distinct memo entries, their own results, and their own /metrics
// series (the registry tells runs apart by key, not by label).
func TestSameNameDifferentMachine(t *testing.T) {
	wb := NewWorkbench(fastBench())
	wb.Metrics = obs.NewMetrics()
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	a := wb.Profile.BaseConfig(1)
	b := a
	b.LLCWays = 22 // same Name, an LLC with twice the ways (half the sets)

	ra, rb := wb.RunSingle(a, id), wb.RunSingle(b, id)
	if ra == rb {
		t.Fatal("two machines sharing a Name were served one memo entry")
	}
	if n := len(wb.SortedResultKeys()); n != 2 {
		t.Errorf("memo holds %d entries, want 2: %v", n, wb.SortedResultKeys())
	}
	var prom strings.Builder
	wb.Metrics.WritePrometheus(&prom)
	if n := strings.Count(prom.String(), "\ngraphmem_run_seconds{"); n != 2 {
		t.Errorf("/metrics exports %d finished runs, want both same-name machines:\n%s", n, prom.String())
	}
	if want := sim.RunSingleCore(wb.configured(b), wb.Workload(id, 0)); !reflect.DeepEqual(rb.Stats, want.Stats) {
		t.Errorf("the 22-way machine's memoized counters are not its own:\n got %+v\nwant %+v", rb.Stats, want.Stats)
	}
}

// TestWorkbenchSpecFoldsKnobs ensures Spec derives the key from the
// config the run will actually execute: windows, check level and (where
// the sampler can take the run) the sampling plan.
func TestWorkbenchSpecFoldsKnobs(t *testing.T) {
	wb := NewWorkbench(fastBench())
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	cfg := wb.Profile.BaseConfig(1)
	plain := wb.Spec(cfg, id)
	if plain.cfg.Warmup != wb.Profile.Warmup || plain.cfg.Measure != wb.Profile.Measure {
		t.Errorf("Spec did not fold the profile windows: %+v", plain.cfg)
	}
	if plain.Key() != NewRunSpec(wb.configured(cfg), id, "bench").Key() {
		t.Error("Spec and NewRunSpec(configured) disagree")
	}

	wb.Sampling = sample.Plan{Period: 50_000, SampleLen: 2_000, Offset: 10_000, DetailWarm: 2_000}
	sampled := wb.Spec(cfg, id)
	if sampled.Key() == plain.Key() || sampled.cfg.Sampling.Plan != wb.Sampling {
		t.Error("a sampled run must carry the plan and its own key")
	}
	// A config the sampler cannot take (Validate says why) keeps full
	// fidelity — and the key of the unsampled run it is.
	fr := cfg.WithFlightRecorder(0)
	if got := wb.Spec(fr, id); got.cfg.Sampling.Enabled() {
		t.Error("a flight-recorded run was sampled")
	} else if _, err := wb.Configure(fr); err == nil || !strings.Contains(err.Error(), "flight recorder") {
		t.Errorf("Configure accepted sampling x recorder: %v", err)
	}
}
