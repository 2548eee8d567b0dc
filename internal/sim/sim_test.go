package sim

import (
	"math"
	"slices"
	"testing"

	"graphmem/internal/graph"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
)

// benchCfg is the 4x-shrunk Table I machine used by fast tests: LLC
// 352 KiB/core, so a ~512 KiB property array spills to DRAM like the
// paper's multi-MB arrays do against 1.375 MiB.
func benchCfg() Config {
	return TableI(1).BenchScale().WithWindows(1_000_000, 4_000_000)
}

// kronWorkload prepares a kernel on a Kron graph whose property arrays
// exceed the bench-scale LLC.
func kronWorkload(t testing.TB, kernel string, scale int) Workload {
	t.Helper()
	g := testGraphCache(scale)
	space := mem.NewSpace(0)
	inst := buildKernel(kernel, g, space)
	return Workload{Name: kernel + ".kron", Inst: inst, Space: space}
}

var graphCache = map[int]*graph.Graph{}

func testGraphCache(scale int) *graph.Graph {
	if g, ok := graphCache[scale]; ok {
		return g
	}
	g := graph.Kron(scale, 8, 42)
	graphCache[scale] = g
	return g
}

// TestValidateWindowEnd: the window end (warm-up end plus Measure, each
// overshot by up to one record) must fit int64. A wrapped end closes
// the window on the first record and "measures" one instruction.
func TestValidateWindowEnd(t *testing.T) {
	for _, c := range []struct {
		warmup, measure int64
		ok              bool
	}{
		{100_000, math.MaxInt64, false},
		{math.MaxInt64, 0, false},
		{1 << 62, 1 << 62, false},
		{0, math.MaxInt64 - recordInstructions, true},
		{0, math.MaxInt64 - recordInstructions + 1, false},
		{1 << 60, 1 << 60, true},
	} {
		err := TableI(1).WithWindows(c.warmup, c.measure).Validate()
		if (err == nil) != c.ok {
			t.Errorf("WithWindows(%d, %d).Validate() = %v, want ok %v", c.warmup, c.measure, err, c.ok)
		}
	}
}

// TestValidateRefusesUnknownLLCPolicy: a policy value past the table
// would otherwise run as LRU under LRU's run key.
func TestValidateRefusesUnknownLLCPolicy(t *testing.T) {
	for _, p := range []LLCPolicy{-1, LLCTOPT + 1} {
		c := TableI(1)
		c.LLCPolicy = p
		if c.Validate() == nil {
			t.Errorf("Validate accepted LLC policy %d", int(p))
		}
	}
}

// TestWithDistillRefusesNarrowL2: an L2 too narrow to give up a
// quarter of its ways would otherwise run a plain L2 under the name
// "Distill".
func TestWithDistillRefusesNarrowL2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithDistill accepted a 2-way L2")
		}
	}()
	c := TableI(1)
	c.L2.Ways = 2
	c.WithDistill()
}

func TestBaselineRunSanity(t *testing.T) {
	cfg := benchCfg()
	res := RunSingleCore(cfg, kronWorkload(t, "pr", 19))
	s := &res.Stats
	if s.Instructions < cfg.Measure {
		t.Fatalf("measured %d instructions, want >= %d", s.Instructions, cfg.Measure)
	}
	if s.Cycles <= 0 || s.IPC() <= 0 || s.IPC() > 4 {
		t.Fatalf("IPC = %g (cycles %d)", s.IPC(), s.Cycles)
	}
	// Ladder sanity: L2 demand accesses stem from L1D misses (plus
	// walker and writeback traffic); LLC accesses from L2 misses.
	if s.L1D.Accesses() == 0 || s.L2.Accesses() == 0 || s.LLC.Accesses() == 0 {
		t.Fatal("cache levels saw no traffic")
	}
	if s.SDC.Accesses() != 0 {
		t.Error("baseline must not touch an SDC")
	}
	if s.ServedDRAM == 0 {
		t.Error("an LLC-exceeding workload must hit DRAM")
	}
	if s.DTLB.Accesses() == 0 {
		t.Error("TLB saw no traffic")
	}
}

func TestGraphWorkloadIsMemoryBound(t *testing.T) {
	// Finding 1: high MPKI at every level for an LLC-exceeding graph
	// workload on the baseline.
	res := RunSingleCore(benchCfg(), kronWorkload(t, "pr", 19))
	s := &res.Stats
	l1 := s.L1D.MPKI(s.Instructions)
	l2 := s.L2.MPKI(s.Instructions)
	llc := s.LLC.MPKI(s.Instructions)
	if l1 < 10 {
		t.Errorf("L1D MPKI = %.1f, want graph-workload levels (>10)", l1)
	}
	if l2 < 5 || llc < 5 {
		t.Errorf("L2/LLC MPKI = %.1f/%.1f, want substantial", l2, llc)
	}
	// Finding 2: most L1D misses reach DRAM.
	frac := float64(s.ServedDRAM) / float64(s.ServedDRAM+s.ServedL2+s.ServedLLC+s.ServedRemote+1)
	if frac < 0.4 {
		t.Errorf("only %.0f%% of L1D misses served by DRAM; paper reports ~78%%", frac*100)
	}
}

func TestSDCLPBeatsBaselineOnIrregular(t *testing.T) {
	w := kronWorkload(t, "pr", 19)
	base := RunSingleCore(benchCfg(), w)
	sdclp := RunSingleCore(benchCfg().WithSDCLP(), kronWorkload(t, "pr", 19))
	if sdclp.IPC() <= base.IPC() {
		t.Errorf("SDC+LP IPC %.3f not above baseline %.3f", sdclp.IPC(), base.IPC())
	}
	// The headline mechanism: L2/LLC pressure collapses (Fig. 8).
	bs, ss := &base.Stats, &sdclp.Stats
	if ss.L2.MPKI(ss.Instructions) > bs.L2.MPKI(bs.Instructions)/2 {
		t.Errorf("L2 MPKI %.1f -> %.1f: expected a large drop",
			bs.L2.MPKI(bs.Instructions), ss.L2.MPKI(ss.Instructions))
	}
	if ss.SDC.Accesses() == 0 {
		t.Error("SDC saw no traffic under LP routing")
	}
	if ss.LPPredAverse == 0 {
		t.Error("LP never classified an access as averse")
	}
	_ = w
}

func TestLPPredictorRoutesGathersNotStreams(t *testing.T) {
	res := RunSingleCore(benchCfg().WithSDCLP(), kronWorkload(t, "pr", 19))
	s := &res.Stats
	// PR's gather is roughly one load in three; the averse fraction
	// must be substantial but not dominant.
	frac := float64(s.LPPredAverse) / float64(s.LPPredAverse+s.LPPredFriendly)
	if frac < 0.05 || frac > 0.8 {
		t.Errorf("averse fraction = %.2f; LP should single out the gathers", frac)
	}
}

func TestExpertRoutesOnlyIrregularRegions(t *testing.T) {
	res := RunSingleCore(benchCfg().WithExpert(), kronWorkload(t, "pr", 19))
	if res.Stats.SDC.Accesses() == 0 {
		t.Fatal("expert routing never used the SDC")
	}
	if res.IPC() <= 0 {
		t.Fatal("bad IPC")
	}
}

func TestTOPTImprovesOverBaseline(t *testing.T) {
	base := RunSingleCore(benchCfg(), kronWorkload(t, "pr", 19))
	topt := RunSingleCore(benchCfg().WithTOPT(), kronWorkload(t, "pr", 19))
	// T-OPT should reduce LLC misses on the property array.
	bm := base.Stats.LLC.MPKI(base.Stats.Instructions)
	tm := topt.Stats.LLC.MPKI(topt.Stats.Instructions)
	if tm >= bm {
		t.Errorf("T-OPT LLC MPKI %.1f not below baseline %.1f", tm, bm)
	}
}

func TestRegularWorkloadUnaffectedBySDCLP(t *testing.T) {
	// τ_glob safety: a sequential workload must not regress under LP
	// routing (Section V-B3).
	mk := func() Workload {
		space := mem.NewSpace(0)
		return Workload{Name: "triad", Inst: kernels.NewTriad(1<<16, space), Space: space}
	}
	cfg := benchCfg().WithWindows(50_000, 400_000)
	base := RunSingleCore(cfg, mk())
	sdclp := RunSingleCore(cfg.WithSDCLP(), mk())
	ratio := sdclp.IPC() / base.IPC()
	if ratio < 0.97 {
		t.Errorf("SDC+LP hurt a regular workload: ratio %.3f", ratio)
	}
	if sdclp.Stats.LPPredAverse > sdclp.Stats.LPPredFriendly/10 {
		t.Errorf("LP routed %d of %d regular accesses to the SDC",
			sdclp.Stats.LPPredAverse, sdclp.Stats.LPPredAverse+sdclp.Stats.LPPredFriendly)
	}
}

// buildKernel prepares the named kernel from the kernel table.
func buildKernel(name string, g *graph.Graph, space *mem.Space) kernels.Instance {
	k, ok := kernels.Lookup(name)
	if !ok {
		panic("sim test: unknown kernel " + name)
	}
	return k.Build(g, space)
}

// variants returns the seven evaluated configurations derived from
// base, in the paper's presentation order.
func variants(base Config) []Config {
	return slices.Concat([]Config{base}, PriorSchemes(base), []Config{base.WithExpert(), base.WithSDCLP()})
}

func TestVariantsAreComplete(t *testing.T) {
	vs := variants(TableI(1))
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
	}
	for _, want := range []string{"Baseline", "L1D 40KB ISO", "Distill", "T-OPT", "2xLLC", "Expert", "SDC+LP"} {
		if !names[want] {
			t.Errorf("variant %q missing", want)
		}
	}
	// The sweep and ablation variants name themselves apart from the
	// machine they derive from.
	base := TableI(1)
	for _, v := range []struct{ cfg, from Config }{
		{base.WithSDCLP().WithSDCSize(16), base.WithSDCLP()},
		{base.WithSDCLP().WithLP(64, 64, 8), base.WithSDCLP()},
		{base.WithoutPrefetchers(), base},
		{base.WithDirLatency(8), base},
	} {
		if v.cfg.Name == "" || v.cfg.Name == v.from.Name {
			t.Errorf("variant of %q lost its name: %q", v.from.Name, v.cfg.Name)
		}
	}
}

func TestConfigGeometriesConstructible(t *testing.T) {
	// Every variant at both scales must build a System without panics.
	for _, cores := range []int{1, 4} {
		for _, base := range []Config{TableI(cores), TableI(cores).BenchScale()} {
			for _, v := range variants(base) {
				ws := make([]Workload, cores)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s (cores=%d): %v", v.Name, cores, r)
						}
					}()
					NewSystem(v, ws)
				}()
			}
		}
	}
	// SDC size and LP sweeps too.
	for _, kb := range []int{8, 16, 32} {
		NewSystem(TableI(1).WithSDCLP().WithSDCSize(kb), make([]Workload, 1))
	}
	for _, e := range []int{8, 16, 32, 64} {
		NewSystem(TableI(1).WithSDCLP().WithLP(e, e, 8), make([]Workload, 1))
	}
}

func TestRerunFillsWindows(t *testing.T) {
	// A tiny kernel run must restart until the windows fill.
	g := graph.Urand(2000, 8000, 5)
	space := mem.NewSpace(0)
	w := Workload{Name: "bfs.tiny", Inst: kernels.NewBFS(g, space), Space: space}
	cfg := benchCfg().WithWindows(30_000, 200_000)
	res := RunSingleCore(cfg, w)
	if res.Stats.Instructions < cfg.Measure {
		t.Fatalf("windows not filled: %d instructions", res.Stats.Instructions)
	}
	if res.Reruns == 0 {
		t.Error("expected kernel restarts for a tiny graph")
	}
}

func TestObserverSeesMeasureWindowLoads(t *testing.T) {
	cfg := benchCfg()
	ws := []Workload{kronWorkload(t, "cc", 19)}
	sys := NewSystem(cfg, ws)
	var seen int64
	var dram int64
	sys.Observer = func(coreID int, pc uint64, blk mem.BlockAddr, served mem.ServedBy) {
		seen++
		if served == mem.ServedDRAM {
			dram++
		}
	}
	res := sys.RunCore0(ws[0])
	if seen == 0 {
		t.Fatal("observer never fired")
	}
	if dram == 0 {
		t.Error("observer saw no DRAM-served loads")
	}
	if res.Stats.Instructions == 0 {
		t.Fatal("no measurement")
	}
}

func TestMultiCoreSharedSlowerThanAlone(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(20_000, 120_000)
	mkW := func(slot int, kernel string) Workload {
		g := testGraphCache(16)
		space := mem.NewSpace(slot)
		return Workload{Name: kernel, Inst: buildKernel(kernel, g, space), Space: space}
	}
	shared := RunMultiCore(cfg, []Workload{mkW(0, "pr"), mkW(1, "cc")})
	if len(shared.PerCore) != 2 {
		t.Fatal("bad result shape")
	}
	for i, s := range shared.PerCore {
		if s.Instructions < cfg.Measure {
			t.Fatalf("core %d measured only %d instructions", i, s.Instructions)
		}
	}
	// Isolation runs on the same 2-core machine.
	aloneP := RunMultiCore(cfg, []Workload{mkW(0, "pr"), {}})
	aloneC := RunMultiCore(cfg, []Workload{{}, mkW(1, "cc")})
	ipcP, ipcC := aloneP.PerCore[0].IPC(), aloneC.PerCore[1].IPC()
	if shared.PerCore[0].IPC() > ipcP*1.02 || shared.PerCore[1].IPC() > ipcC*1.02 {
		t.Errorf("shared IPCs (%.3f, %.3f) exceed isolated (%.3f, %.3f)",
			shared.PerCore[0].IPC(), shared.PerCore[1].IPC(), ipcP, ipcC)
	}
}

func TestMultiCoreIdleSlots(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(10_000, 60_000)
	g := testGraphCache(16)
	space := mem.NewSpace(0)
	w := Workload{Name: "tc", Inst: kernels.NewTC(g, space), Space: space}
	res := RunMultiCore(cfg, []Workload{w, {}})
	if res.PerCore[0].Instructions == 0 {
		t.Fatal("active core measured nothing")
	}
	if res.PerCore[1].Instructions != 0 {
		t.Error("idle core measured instructions")
	}
}

func TestAddressSpacesDisjointAcrossSlots(t *testing.T) {
	// Two slots' regions never overlap, the property the paper's VIPT
	// no-flush argument rests on.
	s0, s1 := mem.NewSpace(0), mem.NewSpace(1)
	g := graph.Urand(1000, 4000, 1)
	kernels.NewPR(g, s0)
	kernels.NewPR(g, s1)
	for _, r0 := range s0.Regions() {
		for _, r1 := range s1.Regions() {
			if r0.Base < r1.Base+mem.Addr(r1.Size) && r1.Base < r0.Base+mem.Addr(r0.Size) {
				t.Fatalf("regions overlap: %s vs %s", r0.Name, r1.Name)
			}
		}
	}
}

func TestAdaptiveTauRecoversFromBadThreshold(t *testing.T) {
	// Extension check: starting from a badly high τ, the adaptive LP
	// should recover most of the gap to the well-tuned fixed τ=8.
	w := func() Workload { return kronWorkload(t, "pr", 19) }
	cfg := benchCfg()
	good := RunSingleCore(cfg.WithSDCLP(), w())
	lp := cfg.LP
	badCfg := cfg.WithSDCLP().WithLP(lp.Entries, lp.Ways, 64)
	bad := RunSingleCore(badCfg, w())
	adaptCfg := cfg.WithAdaptiveLP()
	adaptCfg.LP.Tau = 64 // same bad starting point
	adapt := RunSingleCore(adaptCfg, w())
	if adapt.IPC() <= bad.IPC() {
		t.Errorf("adaptive τ (%.3f IPC) not above fixed bad τ (%.3f)", adapt.IPC(), bad.IPC())
	}
	// It should close at least a third of the gap to the tuned τ.
	if gap := good.IPC() - bad.IPC(); gap > 0 && adapt.IPC()-bad.IPC() < gap/3 {
		t.Errorf("adaptive recovered only %.3f of a %.3f IPC gap", adapt.IPC()-bad.IPC(), gap)
	}
}

func TestBypassOnlyAblation(t *testing.T) {
	// Pure L2/LLC bypass (no SDC) should beat the baseline on an
	// irregular workload, but the SDC's reuse capture should put SDC+LP
	// ahead of bypass-only — the ablation isolating the SDC's value.
	w := func() Workload { return kronWorkload(t, "pr", 19) }
	base := RunSingleCore(benchCfg(), w())
	bypass := RunSingleCore(benchCfg().WithBypassOnly(), w())
	sdclp := RunSingleCore(benchCfg().WithSDCLP(), w())
	if bypass.IPC() <= base.IPC() {
		t.Errorf("bypass-only IPC %.3f not above baseline %.3f", bypass.IPC(), base.IPC())
	}
	if sdclp.IPC() <= bypass.IPC() {
		t.Errorf("SDC+LP IPC %.3f not above bypass-only %.3f; SDC adds no value?", sdclp.IPC(), bypass.IPC())
	}
	if bypass.Stats.SDC.Accesses() != 0 {
		t.Error("bypass mode touched an SDC")
	}
}

func TestSRRIPLLCRuns(t *testing.T) {
	// The RRIP-family comparison: must run, and per the paper's cited
	// finding, not dramatically improve graph workloads over LRU.
	base := RunSingleCore(benchCfg(), kronWorkload(t, "pr", 19))
	rrip := RunSingleCore(benchCfg().WithRRIP(), kronWorkload(t, "pr", 19))
	ratio := rrip.IPC() / base.IPC()
	if ratio < 0.85 || ratio > 1.3 {
		t.Errorf("SRRIP/LRU IPC ratio %.2f outside the modest band literature reports", ratio)
	}
}
