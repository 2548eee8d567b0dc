package sim

import "testing"

// TestTOPTWithoutOracleIsBaseline: a kernel with no next-use oracle
// leaves every LLC block at RankDefault, so T-OPT's victim is the LRU
// tie-break's, and the run equals Baseline's counter for counter.
func TestTOPTWithoutOracleIsBaseline(t *testing.T) {
	cfg := TableI(1).BenchScale().WithWindows(500_000, 2_000_000)
	evictions := int64(0)
	for _, kernel := range []string{"triad", "matvec", "stencil", "tc"} {
		base := RunSingleCore(cfg, kronWorkload(t, kernel, 16)).Stats
		topt := RunSingleCore(cfg.WithTOPT(), kronWorkload(t, kernel, 16)).Stats
		if topt != base {
			t.Errorf("%s: T-OPT with no oracle %+v, Baseline %+v", kernel, topt, base)
		}
		evictions += base.LLC.Evictions
	}
	if evictions == 0 {
		t.Error("no LLC eviction in any case: the law chose no victim")
	}
}

// TestOneWorkloadMixIsSingleCore: the mix door on a one-core machine
// runs the same simulation as the single-core door. T-OPT covers the
// mix engine's forwarding of the kernels' progress to the oracle.
func TestOneWorkloadMixIsSingleCore(t *testing.T) {
	base := TableI(1).BenchScale().WithWindows(200_000, 1_000_000)
	for _, cfg := range []Config{base.WithSDCLP(), base.WithTOPT()} {
		for _, kernel := range []string{"pr", "cc"} {
			single := RunSingleCore(cfg, kronWorkload(t, kernel, 16)).Stats
			mix := RunMultiCore(cfg, []Workload{kronWorkload(t, kernel, 16)}).PerCore[0]
			if mix != single {
				t.Errorf("%s %s: one-workload mix %+v, single-core run %+v", cfg.Name, kernel, mix, single)
			}
		}
	}
}
