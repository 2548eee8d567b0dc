// Ablation benchmarks for the design choices DESIGN.md calls out: how
// much of SDC+LP's benefit depends on the prefetchers, on the
// directory-check cost of the SDC miss path, and on the predictor
// existing at all (expert-routing upper/lower bound). These go beyond
// the paper's own sweeps (Figs. 10-12, τ_glob) and probe the
// reproduction's sensitivity to its substrate.
package graphmem_test

import (
	"testing"

	"graphmem/internal/harness"
	"graphmem/internal/sim"
)

// ablationWorkload is the single workload used by the ablations (the
// full sweeps run across the suite; ablations need one clean signal).
var ablationWorkload = harness.WorkloadID{Kernel: "pr", Graph: "kron"}

// speedupOver runs cfg and the profile baseline on the ablation
// workload and returns the percentage speed-up.
func speedupOver(b *testing.B, cfg sim.Config) float64 {
	b.Helper()
	wb := bench()
	base := wb.RunSingle(wb.Profile.BaseConfig(1), ablationWorkload)
	v := wb.RunSingle(cfg, ablationWorkload)
	return (v.IPC()/base.IPC() - 1) * 100
}

func BenchmarkAblationNoPrefetchers(b *testing.B) {
	var withPF, noPFBase, noPFSDC float64
	for i := 0; i < b.N; i++ {
		wb := bench()
		base := wb.Profile.BaseConfig(1)
		withPF = speedupOver(b, base.WithSDCLP())
		noBase := wb.RunSingle(base.WithoutPrefetchers(), ablationWorkload)
		noSDC := wb.RunSingle(base.WithSDCLP().WithoutPrefetchers(), ablationWorkload)
		noPFSDC = (noSDC.IPC()/noBase.IPC() - 1) * 100
		ref := wb.RunSingle(base, ablationWorkload)
		noPFBase = (noBase.IPC()/ref.IPC() - 1) * 100
	}
	b.ReportMetric(withPF, "sdclp+pf%")
	b.ReportMetric(noPFSDC, "sdclp-nopf%")
	b.ReportMetric(noPFBase, "base-nopf%")
	b.Logf("SDC+LP speed-up with prefetchers %+.1f%%, without %+.1f%% (prefetcher cost on baseline: %+.1f%%)",
		withPF, noPFSDC, noPFBase)
}

func BenchmarkAblationDirLatency(b *testing.B) {
	// The SDC miss path charges a directory round (Section III-C); how
	// sensitive is the win to that cost?
	lats := []int64{8, 28, 56, 112}
	got := make([]float64, len(lats))
	for i := 0; i < b.N; i++ {
		wb := bench()
		base := wb.Profile.BaseConfig(1)
		for j, d := range lats {
			got[j] = speedupOver(b, base.WithSDCLP().WithDirLatency(d))
		}
	}
	for j, d := range lats {
		b.ReportMetric(got[j], "dir"+itoa(d)+"%")
	}
	b.Logf("SDC+LP speed-up vs directory latency: %v cycles -> %.1f / %.1f / %.1f / %.1f %%",
		lats, got[0], got[1], got[2], got[3])
}

func BenchmarkAblationRoutingQuality(b *testing.B) {
	// Bounds on the predictor: perfect structure knowledge (Expert) vs
	// the 554-byte LP vs no routing at all.
	var lp, expert float64
	for i := 0; i < b.N; i++ {
		wb := bench()
		base := wb.Profile.BaseConfig(1)
		lp = speedupOver(b, base.WithSDCLP())
		expert = speedupOver(b, base.WithExpert())
	}
	b.ReportMetric(lp, "lp%")
	b.ReportMetric(expert, "expert%")
	b.Logf("routing quality on %s: LP %+.1f%%, Expert %+.1f%%", ablationWorkload, lp, expert)
}

func BenchmarkAblationTOPTQuantization(b *testing.B) {
	// T-OPT's next-use ranks are 8-bit quantized; compare against the
	// paper's LRU LLC to size the replacement-policy contribution.
	var topt, twoX float64
	for i := 0; i < b.N; i++ {
		wb := bench()
		base := wb.Profile.BaseConfig(1)
		topt = speedupOver(b, base.WithTOPT())
		twoX = speedupOver(b, base.With2xLLC())
	}
	b.ReportMetric(topt, "topt%")
	b.ReportMetric(twoX, "2xllc%")
	b.Logf("replacement vs capacity on %s: T-OPT %+.1f%%, 2xLLC %+.1f%%", ablationWorkload, topt, twoX)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkExtensionAdaptiveTau(b *testing.B) {
	// The repository's future-work extension: online τ_glob adaptation
	// vs the paper's fixed τ=8 and a deliberately bad fixed τ=64.
	var fixed8, fixed64, adaptive float64
	for i := 0; i < b.N; i++ {
		wb := bench()
		base := wb.Profile.BaseConfig(1)
		fixed8 = speedupOver(b, base.WithSDCLP())
		lp := base.LP
		fixed64 = speedupOver(b, base.WithSDCLP().WithLP(lp.Entries, lp.Ways, 64))
		bad := base.WithAdaptiveLP()
		bad.LP.Tau = 64
		adaptive = speedupOver(b, bad)
	}
	b.ReportMetric(fixed8, "tau8%")
	b.ReportMetric(fixed64, "tau64%")
	b.ReportMetric(adaptive, "adaptive%")
	b.Logf("fixed tau=8 %+.1f%%, fixed tau=64 %+.1f%%, adaptive from 64 %+.1f%%", fixed8, fixed64, adaptive)
}

func BenchmarkAblationVictimCache(b *testing.B) {
	// Jouppi's victim cache targets conflict misses; the paper argues
	// graph gathers are capacity misses it cannot help.
	var vc8, vc32 float64
	for i := 0; i < b.N; i++ {
		wb := bench()
		base := wb.Profile.BaseConfig(1)
		vc8 = speedupOver(b, base.WithVictimCache(8))
		vc32 = speedupOver(b, base.WithVictimCache(32))
	}
	b.ReportMetric(vc8, "vc8%")
	b.ReportMetric(vc32, "vc32%")
	b.Logf("victim cache on %s: 8 entries %+.1f%%, 32 entries %+.1f%% (SDC+LP for contrast: see BenchmarkAblationRoutingQuality)", ablationWorkload, vc8, vc32)
}

func BenchmarkAblationBypassVsSDC(b *testing.B) {
	// Selective-Cache-style pure bypass vs the SDC: how much of the win
	// is skipping L2/LLC look-ups vs capturing short-term reuse.
	var bypass, sdclp, srrip float64
	for i := 0; i < b.N; i++ {
		wb := bench()
		base := wb.Profile.BaseConfig(1)
		bypass = speedupOver(b, base.WithBypassOnly())
		sdclp = speedupOver(b, base.WithSDCLP())
		srrip = speedupOver(b, base.WithRRIP())
	}
	b.ReportMetric(bypass, "bypass%")
	b.ReportMetric(sdclp, "sdclp%")
	b.ReportMetric(srrip, "srrip%")
	b.Logf("on %s: bypass-only %+.1f%%, SDC+LP %+.1f%%, SRRIP LLC %+.1f%%", ablationWorkload, bypass, sdclp, srrip)
}
