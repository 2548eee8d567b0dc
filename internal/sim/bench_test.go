package sim

import (
	"testing"

	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// prRecs caches a captured slice of the pr.kron trace so benchmarks
// replay identical records without re-running the kernel per run.
var prRecs []trace.Record

func prRecords(tb testing.TB, n int64) []trace.Record {
	tb.Helper()
	if int64(len(prRecs)) >= n {
		return prRecs[:n]
	}
	g := testGraphCache(19)
	space := mem.NewSpace(0)
	inst := kernels.NewPR(g, space)
	sink := &trace.SliceSink{Limit: n}
	inst.Run(trace.New(sink))
	if int64(len(sink.Recs)) < n {
		tb.Fatalf("captured %d records, want %d", len(sink.Recs), n)
	}
	prRecs = sink.Recs
	return prRecs[:n]
}

// steadyCtx builds a single-core system whose windows never close, so
// replaying records exercises the steady-state hot loop (fast-path
// observe, no epoch or measure boundaries).
func steadyCtx(tb testing.TB, cfg Config) *coreCtx {
	tb.Helper()
	cfg = cfg.WithWindows(1<<60, 1<<60)
	ws := make([]Workload, cfg.Cores)
	ws[0] = kronWorkload(tb, "pr", 19)
	return NewSystem(cfg, ws).cores[0]
}

// BenchmarkPRKronStep replays captured pr.kron records through the full
// per-record path — cpu recurrences, TLB, cache ladder, DRAM — of the
// bench-scale baseline machine.
func BenchmarkPRKronStep(b *testing.B) {
	recs := prRecords(b, 1<<18)
	c := steadyCtx(b, TableI(1).BenchScale())
	// Warm structures so the measured loop is steady-state.
	for _, r := range recs[:1<<16] {
		c.observe(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.observe(recs[i%len(recs)])
	}
}

// BenchmarkPRKronStepSDCLP is the same replay against the paper's
// SDC+LP machine, covering the LP predictor and SDC/SDCDir paths.
func BenchmarkPRKronStepSDCLP(b *testing.B) {
	recs := prRecords(b, 1<<18)
	c := steadyCtx(b, TableI(1).BenchScale().WithSDCLP())
	for _, r := range recs[:1<<16] {
		c.observe(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.observe(recs[i%len(recs)])
	}
}

// TestHotLoopZeroAllocs pins the steady-state record loop at zero
// allocations per record: any regression here shows up long before it
// is visible in wall-clock.
func TestHotLoopZeroAllocs(t *testing.T) {
	recs := prRecords(t, 1<<18)
	for _, cfg := range []Config{TableI(1).BenchScale(), TableI(1).BenchScale().WithSDCLP()} {
		c := steadyCtx(t, cfg)
		for _, r := range recs[:1<<16] {
			c.observe(r)
		}
		i := 1 << 16
		avg := testing.AllocsPerRun(4096, func() {
			c.observe(recs[i%len(recs)])
			i++
		})
		if avg != 0 {
			t.Errorf("%s: steady-state observe allocates %.2f/record, want 0", cfg.Name, avg)
		}
	}
}
