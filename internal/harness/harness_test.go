package harness

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphmem/internal/sim"
)

// wbShared is a shared bench-profile workbench so expensive graph
// builds and simulation runs are reused across tests in this package.
var wbShared = NewWorkbench(Bench())

// subsetKron is the cheap two-workload subset used by most tests.
func subsetKron() []WorkloadID {
	return []WorkloadID{{Kernel: "pr", Graph: "kron"}, {Kernel: "cc", Graph: "urand"}}
}

func TestAllWorkloads(t *testing.T) {
	ws := AllWorkloads()
	if len(ws) != 36 {
		t.Fatalf("got %d workloads, want 36", len(ws))
	}
	if ws[0].String() != "bc.web" || ws[35].String() != "sssp.friendster" {
		t.Errorf("ordering wrong: %v ... %v", ws[0], ws[35])
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.String()] {
			t.Errorf("duplicate workload %v", w)
		}
		seen[w.String()] = true
	}
}

// TestSubsetWorkloads pins the filter's output and error text: items are
// trimmed, empty items match nothing, the regular stand-ins resolve, and
// matches come in AllWorkloads order, the regular suite last.
func TestSubsetWorkloads(t *testing.T) {
	for _, tc := range []struct {
		kernels, graphs, want string
	}{
		{" pr , cc ", "kron", "cc.kron pr.kron"},
		{"pr,", "", "pr.web pr.road pr.twitter pr.kron pr.urand pr.friendster"},
		{"", " urand", "bc.urand bfs.urand cc.urand pr.urand tc.urand sssp.urand"},
		{"sssp,tc", "urand,road", "tc.road tc.urand sssp.road sssp.urand"},
		{"triad,matvec", "reg", "triad.reg matvec.reg"},
		{"", "reg", "triad.reg matvec.reg stencil.reg"},
		{"", "", ""},
	} {
		ids, err := SubsetWorkloads(tc.kernels, tc.graphs)
		if err != nil {
			t.Errorf("SubsetWorkloads(%q, %q): %v", tc.kernels, tc.graphs, err)
			continue
		}
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = id.String()
		}
		if got := strings.Join(names, " "); got != tc.want || (tc.want == "") != (ids == nil) {
			t.Errorf("SubsetWorkloads(%q, %q) = %q (nil: %v), want %q", tc.kernels, tc.graphs, got, ids == nil, tc.want)
		}
	}
	for _, tc := range [][2]string{{"pr", "nope"}, {",", ""}, {"triad", "kron"}} {
		_, err := SubsetWorkloads(tc[0], tc[1])
		want := `harness: subset filter ("` + tc[0] + `", "` + tc[1] + `") matched no workloads`
		if err == nil || err.Error() != want {
			t.Errorf("SubsetWorkloads(%q, %q) error = %v, want %s", tc[0], tc[1], err, want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"bench", "small", "full"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%q) = %v, %v", name, p.Name, err)
		}
	}
	if p, err := ProfileByName(""); err != nil || p.Name != "small" {
		t.Error("empty profile should default to small")
	}
	if _, err := ProfileByName("huge"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestProfilesHaveAllGraphs(t *testing.T) {
	for _, e := range profiles {
		p := named(e)
		for _, g := range GraphNames {
			if _, ok := p.Graphs[g]; !ok {
				t.Errorf("profile %s missing graph %s", p.Name, g)
			}
		}
	}
}

func TestTab1RendersConfig(t *testing.T) {
	out := wbShared.Tab1().String()
	for _, want := range []string{"L1-D Cache", "SDC", "LP Predictor", "LLC", "SDCDir", "DRAM"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 missing %q:\n%s", want, out)
		}
	}
}

func TestTab2MatchesTableII(t *testing.T) {
	out := wbShared.Tab2().String()
	for _, want := range []string{"Pull-Only", "Push & Pull", "8B + 4B"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab2 missing %q:\n%s", want, out)
		}
	}
}

// TestTab2BuildsNothing: Table II is static kernel data, so rendering
// it on a fresh workbench reads the kernel table and builds no graph.
func TestTab2BuildsNothing(t *testing.T) {
	wb := NewWorkbench(Bench())
	var lines []string
	wb.Progress = func(msg string) { lines = append(lines, msg) }
	wb.Tab2()
	if keys := wb.graphs.keys(); len(keys) != 0 || len(lines) != 0 {
		t.Errorf("Tab2 built graphs %v (progress %q)", keys, lines)
	}
}

func TestTab4BudgetTotal(t *testing.T) {
	tbl := wbShared.Tab4(1)
	out := tbl.String()
	if !strings.Contains(out, "SDCDir") || !strings.Contains(out, "Total") {
		t.Fatalf("tab4 malformed:\n%s", out)
	}
	// BenchScale shrinks only L1D/L2/LLC, so the SDC, LP and SDCDir
	// budget is the same at every scale; check Table IV's values at
	// paper scale, via the small profile.
	small := NewWorkbench(Small()).Tab4(1).String()
	if !strings.Contains(small, "8.69") || !strings.Contains(small, "0.54") {
		t.Errorf("tab4 at paper scale missing Table IV values:\n%s", small)
	}
}

func TestRunSingleMemoizes(t *testing.T) {
	id := WorkloadID{Kernel: "pr", Graph: "kron"}
	cfg := wbShared.Profile.BaseConfig(1)
	a := wbShared.RunSingle(cfg, id)
	b := wbShared.RunSingle(cfg, id)
	if a != b {
		t.Error("RunSingle did not memoize")
	}
}

func TestFig2Characterization(t *testing.T) {
	res := wbShared.Fig2(subsetKron())
	if len(res.L1D) != 2 {
		t.Fatal("bad shape")
	}
	// Finding 1: graph workloads have high MPKI at all levels.
	if res.AvgL1D < 20 || res.AvgL2 < 10 || res.AvgLLC < 10 {
		t.Errorf("MPKI too low: %.1f / %.1f / %.1f", res.AvgL1D, res.AvgL2, res.AvgLLC)
	}
	// Ladder: L1D >= L2 >= LLC on average.
	if res.AvgL1D < res.AvgL2 || res.AvgL2 < res.AvgLLC {
		t.Errorf("MPKI ladder inverted: %.1f / %.1f / %.1f", res.AvgL1D, res.AvgL2, res.AvgLLC)
	}
	// Finding 2: the bulk of L1D misses are served by DRAM.
	if res.DRAMFraction < 0.4 {
		t.Errorf("DRAM fraction %.2f too low (paper: 0.786)", res.DRAMFraction)
	}
	out := res.Table().String()
	if !strings.Contains(out, "average") {
		t.Error("fig2 table missing average row")
	}
}

func TestFig3StrideDRAMCorrelation(t *testing.T) {
	// Finding 3: large strides imply high DRAM probability. The paper
	// uses cc.friendster; cc.kron exhibits the same behaviour and
	// shares this suite's cached graph.
	res := wbShared.Fig3(WorkloadID{Kernel: "cc", Graph: "kron"})
	// Find the unit-stride bucket probability and the largest-stride
	// populated bucket's probability.
	small := res.Prob[1]
	// Compare against the most DRAM-bound populated larger-stride
	// bucket: our scaled graphs top out near 1e4-block strides, so the
	// paper's 1e5/1e6 buckets are empty here (a pure scale artefact).
	large := -1.0
	for b := 2; b < len(res.Prob); b++ {
		if res.Prob[b] > large && res.Samples[b] > 1000 {
			large = res.Prob[b]
		}
	}
	if small < 0 || large < 0 {
		t.Fatalf("buckets unpopulated: %v %v", res.Prob, res.Samples)
	}
	if large < small+0.2 {
		t.Errorf("P(DRAM): stride-1 %.2f vs large-stride %.2f; want strong separation", small, large)
	}
}

func TestFig7ShapeOnSubset(t *testing.T) {
	res := wbShared.Fig7(subsetKron())
	if len(res.Schemes) != 5 {
		t.Fatalf("schemes = %v", res.Schemes)
	}
	get := func(name string) float64 {
		i := res.SchemeIndex(name)
		if i < 0 {
			t.Fatalf("missing scheme %s", name)
		}
		return res.GeomeanPct[i]
	}
	sdclp := get("SDC+LP")
	if sdclp < 5 {
		t.Errorf("SDC+LP geomean %+.1f%%; want a clear win", sdclp)
	}
	if iso := get("L1D 40KB ISO"); iso > 5 || iso < -5 {
		t.Errorf("L1D ISO geomean %+.1f%%; paper reports ~0", iso)
	}
	if distill := get("Distill"); distill > 5 || distill < -8 {
		t.Errorf("Distill geomean %+.1f%%; paper reports ~0", distill)
	}
	if topt := get("T-OPT"); topt <= 0 || topt >= sdclp {
		t.Errorf("T-OPT geomean %+.1f%% vs SDC+LP %+.1f%%; paper has SDC+LP ahead", topt, sdclp)
	}
	out := res.Table().String()
	if !strings.Contains(out, "geomean") {
		t.Error("fig7 table missing geomean row")
	}
}

func TestFig89PressureDrop(t *testing.T) {
	res := wbShared.Fig89(subsetKron())
	if res.AvgSdcL2 > res.AvgBaseL2/2 {
		t.Errorf("L2 MPKI %.1f -> %.1f: want a collapse (paper 44.5 -> 4.4)", res.AvgBaseL2, res.AvgSdcL2)
	}
	if res.AvgSdcLLC > res.AvgBaseLLC/2 {
		t.Errorf("LLC MPKI %.1f -> %.1f: want a collapse (paper 41.8 -> 2.8)", res.AvgBaseLLC, res.AvgSdcLLC)
	}
	if res.AvgSdcL1D > res.AvgBaseL1D {
		t.Errorf("L1D MPKI grew: %.1f -> %.1f", res.AvgBaseL1D, res.AvgSdcL1D)
	}
	if res.AvgSdcSDC == 0 {
		t.Error("SDC saw no misses; routing inactive?")
	}
	if s := res.Fig8Table().String(); !strings.Contains(s, "average") {
		t.Error("fig8 table malformed")
	}
	if s := res.Fig9Table().String(); !strings.Contains(s, "L1D+SDC") {
		t.Error("fig9 table malformed")
	}
}

func TestTauExtremes(t *testing.T) {
	one := []WorkloadID{{Kernel: "pr", Graph: "kron"}}
	res := wbShared.Tau(one, []uint64{8, 1 << 40})
	if len(res.GraphPct) != 2 {
		t.Fatal("bad shape")
	}
	// τ=8 helps graphs; τ=2^40 routes nothing and must sit near zero.
	if res.GraphPct[0] < 3 {
		t.Errorf("tau=8 graph speed-up %+.1f%%, want positive", res.GraphPct[0])
	}
	if res.GraphPct[1] > 3 || res.GraphPct[1] < -3 {
		t.Errorf("tau=max graph speed-up %+.1f%%, want ~0", res.GraphPct[1])
	}
	// Regular suite must never be hurt meaningfully.
	for i, p := range res.RegularPct {
		if p < -3 {
			t.Errorf("tau=%d hurt regular suite: %+.1f%%", res.Taus[i], p)
		}
	}
}

// TestTauMaxIsBaseline is an exact law: at τ = 2^40 the LP never
// predicts averse, so SDC+LP routes nothing to the SDC and runs as the
// Baseline does, counter for counter. The residue is the LP and SDCDir
// bookkeeping that still happens on every access: LPPredFriendly and
// LPTableMisses count the predictions, SDCDirLookups the directory
// probes; they may differ, every other field must not.
func TestTauMaxIsBaseline(t *testing.T) {
	wb := NewWorkbench(fastBench())
	base := wb.Profile.BaseConfig(1)
	lp := base.LP
	tauMax := base.WithSDCLP().WithLP(lp.Entries, lp.Ways, 1<<40)
	residue := []string{"LPPredFriendly", "LPTableMisses", "SDCDirLookups"}
	for _, kernel := range []string{"pr", "cc", "bfs"} {
		id := WorkloadID{Kernel: kernel, Graph: "kron"}
		want := reflect.ValueOf(wb.RunSingle(base, id).Stats)
		got := reflect.ValueOf(wb.RunSingle(tauMax, id).Stats)
		for i := range want.NumField() {
			name := want.Type().Field(i).Name
			if !slices.Contains(residue, name) && !reflect.DeepEqual(want.Field(i).Interface(), got.Field(i).Interface()) {
				t.Errorf("%s: τ=2^40 SDC+LP %s = %v, Baseline %v", id, name, got.Field(i), want.Field(i))
			}
		}
	}
}

// TestOneWorkloadMixIsRunSingle: a one-workload mix on a one-core
// machine, through the mix door, reports the single door's counters.
func TestOneWorkloadMixIsRunSingle(t *testing.T) {
	wb := NewWorkbench(fastBench())
	base := wb.Profile.BaseConfig(1)
	for _, cfg := range []sim.Config{base.WithSDCLP(), base.WithTOPT()} {
		for _, kernel := range []string{"pr", "cc"} {
			id := WorkloadID{Kernel: kernel, Graph: "kron"}
			single := wb.RunSingle(cfg, id).Stats
			mix := wb.RunMix(newRunSpec(kindMix, wb.configured(cfg), []WorkloadID{id}, wb.Profile.Name)).PerCore[0]
			if mix != single {
				t.Errorf("%s %s: one-workload mix %+v, RunSingle %+v", cfg.Name, id, mix, single)
			}
		}
	}
}

func TestGenerateMixesDeterministic(t *testing.T) {
	a := GenerateMixes(nil, 5, 7)
	b := GenerateMixes(nil, 5, 7)
	if len(a) != 5 || len(a[0]) != 4 {
		t.Fatalf("mix shape %dx%d", len(a), len(a[0]))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed produced different mixes")
			}
		}
	}
	c := GenerateMixes(nil, 5, 8)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical mixes")
	}
}

func TestFig14SingleMix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-core mix run is slow")
	}
	pool := []WorkloadID{{Kernel: "pr", Graph: "kron"}, {Kernel: "cc", Graph: "urand"}}
	mixes := GenerateMixes(pool, 1, 3)
	res := wbShared.Fig14(mixes)
	if len(res.Schemes) != 5 || len(res.WS[0]) != 1 {
		t.Fatalf("bad shape: %v", res.Schemes)
	}
	i := res.SchemeIndex("SDC+LP")
	if res.WS[i][0] < 1.0 {
		t.Errorf("SDC+LP multi-core weighted speed-up %.3f, want > 1", res.WS[i][0])
	}
	if s := res.Table().String(); !strings.Contains(s, "geomean") {
		t.Error("fig14 table malformed")
	}
}

func TestRegularWorkloadsRun(t *testing.T) {
	cfg := wbShared.Profile.BaseConfig(1)
	for _, id := range RegularWorkloads() {
		r := wbShared.RunSingle(cfg, id)
		if r.Stats.Instructions == 0 {
			t.Errorf("%v measured nothing", id)
		}
		// Streaming kernels whose footprint exceeds the LLC are
		// DRAM-bandwidth-bound; anything above ~0.2 IPC is healthy.
		if r.IPC() < 0.2 {
			t.Errorf("%v IPC %.2f suspiciously low for a regular kernel", id, r.IPC())
		}
	}
}
