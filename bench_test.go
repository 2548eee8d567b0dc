// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, each regenerating the same rows/series the
// paper reports (at the fast "bench" profile over a reduced workload
// subset; use cmd/gmreport -profile small|full for the complete 36).
//
// The numbers of interest are emitted both as rendered tables (-v) and
// as custom benchmark metrics (e.g. geomean speed-up in %), so
// `go test -bench=. -benchmem` doubles as the reproduction run.
package graphmem_test

import (
	"strings"
	"sync"
	"testing"

	"graphmem/internal/core"
	"graphmem/internal/harness"
)

var (
	wbOnce sync.Once
	wb     *harness.Workbench
)

// bench returns the shared workbench; graphs and simulation results are
// memoized across all benchmarks, so each experiment pays only for the
// runs it introduces.
func bench() *harness.Workbench {
	wbOnce.Do(func() {
		wb = harness.NewWorkbench(harness.Bench())
	})
	return wb
}

// metric sanitizes a scheme name into a benchmark metric unit (no
// whitespace allowed).
func metric(name string) string {
	return strings.ReplaceAll(name, " ", "_") + "%"
}

// sweepSubset is the smaller set used by the parameter sweeps (three
// diverse workloads), keeping the full benchmark run tractable on one
// CPU.
func sweepSubset() []harness.WorkloadID {
	return []harness.WorkloadID{
		{Kernel: "pr", Graph: "kron"},
		{Kernel: "cc", Graph: "urand"},
		{Kernel: "tc", Graph: "twitter"},
	}
}

// benchSubset is the reduced workload set used by the benchmarks:
// three kernels of distinct styles (pull, push-mostly hook/compress,
// push-only intersection) on the three most distinct graph families.
// BFS is deliberately not in this subset: at bench scale its hot
// irregular working set (frontier bitmap + hub parents) fits the L2,
// so bypassing regresses it — a documented scale artefact (see
// EXPERIMENTS.md); the full 36-workload gmreport runs include it.
func benchSubset() []harness.WorkloadID {
	var out []harness.WorkloadID
	for _, k := range []string{"pr", "cc", "tc"} {
		for _, g := range []string{"kron", "urand", "twitter"} {
			out = append(out, harness.WorkloadID{Kernel: k, Graph: g})
		}
	}
	return out
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench().Tab1()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable2Kernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench().Tab2()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable3Graphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench().Tab3()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable4Budget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench().Tab4(1)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
	rows := core.Budget(8<<10, 32, 128, 1)
	b.ReportMetric(core.TotalKB(rows), "paperKB")
}

func BenchmarkFig2BaselineMPKI(b *testing.B) {
	var res *harness.Fig2Result
	for i := 0; i < b.N; i++ {
		res = bench().Fig2(benchSubset())
	}
	b.Log("\n" + res.Table().String())
	b.ReportMetric(res.AvgL1D, "L1D-MPKI")
	b.ReportMetric(res.AvgL2, "L2-MPKI")
	b.ReportMetric(res.AvgLLC, "LLC-MPKI")
	b.ReportMetric(res.DRAMFraction*100, "DRAM%")
}

func BenchmarkFig3StrideDRAM(b *testing.B) {
	var res *harness.Fig3Result
	for i := 0; i < b.N; i++ {
		res = bench().Fig3(harness.WorkloadID{Kernel: "cc", Graph: "kron"})
	}
	b.Log("\n" + res.Table().String())
}

func BenchmarkFig7SingleCoreSpeedup(b *testing.B) {
	var res *harness.SpeedupResult
	for i := 0; i < b.N; i++ {
		res = bench().Fig7(benchSubset())
	}
	b.Log("\n" + res.Table().String())
	for i, s := range res.Schemes {
		b.ReportMetric(res.GeomeanPct[i], metric(s))
	}
}

func BenchmarkFig8L2LLCMPKI(b *testing.B) {
	var res *harness.Fig89Result
	for i := 0; i < b.N; i++ {
		res = bench().Fig89(benchSubset())
	}
	b.Log("\n" + res.Fig8Table().String())
	b.ReportMetric(res.AvgBaseL2, "baseL2")
	b.ReportMetric(res.AvgSdcL2, "sdcL2")
	b.ReportMetric(res.AvgBaseLLC, "baseLLC")
	b.ReportMetric(res.AvgSdcLLC, "sdcLLC")
}

func BenchmarkFig9L1SDCMPKI(b *testing.B) {
	var res *harness.Fig89Result
	for i := 0; i < b.N; i++ {
		res = bench().Fig89(benchSubset())
	}
	b.Log("\n" + res.Fig9Table().String())
	b.ReportMetric(res.AvgBaseL1D, "baseL1D")
	b.ReportMetric(res.AvgSdcL1D, "sdcL1D")
	b.ReportMetric(res.AvgSdcSDC, "sdcSDC")
}

func BenchmarkFig10SDCSize(b *testing.B) {
	var res *harness.Fig10Result
	for i := 0; i < b.N; i++ {
		res = bench().Fig10(sweepSubset())
	}
	b.Log("\n" + res.Table().String())
	b.ReportMetric(res.GeomeanPct[0], "8KB%")
	b.ReportMetric(res.AvgSDCMPKI[0], "8KB-MPKI")
}

func BenchmarkFig11LPEntries(b *testing.B) {
	var res *harness.SweepResult
	for i := 0; i < b.N; i++ {
		res = bench().Fig11(sweepSubset())
	}
	b.Log("\n" + res.Table().String())
}

func BenchmarkFig12LPAssoc(b *testing.B) {
	var res *harness.SweepResult
	for i := 0; i < b.N; i++ {
		res = bench().Fig12(sweepSubset())
	}
	b.Log("\n" + res.Table().String())
}

func BenchmarkTauGlobSweep(b *testing.B) {
	var res *harness.TauResult
	for i := 0; i < b.N; i++ {
		res = bench().Tau(sweepSubset(), []uint64{0, 4, 8, 32, 256})
	}
	b.Log("\n" + res.Table().String())
}

func BenchmarkFig13Expert(b *testing.B) {
	var res *harness.SpeedupResult
	for i := 0; i < b.N; i++ {
		res = bench().Fig13(benchSubset())
	}
	b.Log("\n" + res.Table().String())
	for i, s := range res.Schemes {
		b.ReportMetric(res.GeomeanPct[i], metric(s))
	}
}

func BenchmarkFig14MultiCore(b *testing.B) {
	mixes := harness.GenerateMixes(benchSubset(), 2, 14)
	var res *harness.Fig14Result
	for i := 0; i < b.N; i++ {
		res = bench().Fig14(mixes)
	}
	b.Log("\n" + res.Table().String())
	for i, s := range res.Schemes {
		b.ReportMetric(res.GeomeanPct[i], metric(s))
	}
}

func BenchmarkSectionVEEnergy(b *testing.B) {
	var res *harness.EnergyResult
	for i := 0; i < b.N; i++ {
		res = bench().Energy(benchSubset())
	}
	b.Log("\n" + res.Table().String())
	b.ReportMetric(res.AvgShare, "proposal%")
	b.ReportMetric(res.AvgBase, "base-nJ/KI")
	b.ReportMetric(res.AvgSDC, "sdclp-nJ/KI")
}
