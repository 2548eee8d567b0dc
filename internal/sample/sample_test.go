package sample

import (
	"math"
	"testing"

	"graphmem/internal/stats"
)

func TestPlanValid(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
		want bool
	}{
		{"zero (disabled)", Plan{}, false},
		{"typical", Plan{Period: 50_000, SampleLen: 5_000, Offset: 10_000, DetailWarm: 5_000}, true},
		{"no warm prefix", Plan{Period: 50_000, SampleLen: 5_000, Offset: 0}, true},
		{"detail fills period", Plan{Period: 10_000, SampleLen: 5_000, DetailWarm: 5_000}, true},
		{"detail exceeds period", Plan{Period: 10_000, SampleLen: 6_000, DetailWarm: 5_000}, false},
		{"zero sample", Plan{Period: 10_000, SampleLen: 0}, false},
		{"negative warm", Plan{Period: 10_000, SampleLen: 1_000, DetailWarm: -1}, false},
		{"offset outside period", Plan{Period: 10_000, SampleLen: 1_000, Offset: 10_000}, false},
		{"negative offset", Plan{Period: 10_000, SampleLen: 1_000, Offset: -1}, false},
		{"warm+len overflows", Plan{Period: 100, SampleLen: math.MaxInt64, DetailWarm: 1}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("%s: Valid() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPlanSchedule(t *testing.T) {
	p := Plan{Period: 50_000, SampleLen: 5_000, Offset: 10_000, DetailWarm: 5_000}
	if !p.Enabled() {
		t.Fatal("plan with positive period not enabled")
	}
	if s := p.NextStart(0); s != 10_000 {
		t.Errorf("NextStart(0) = %d, want 10000", s)
	}
	if s := p.NextStart(3); s != 160_000 {
		t.Errorf("NextStart(3) = %d, want 160000", s)
	}
}

// TestEstimateIsRatioEstimator pins the Jensen-bias fix: with two
// samples of very different per-sample IPC, the estimate must be the
// pooled ratio Σinstr/Σcycles (0.2 here), not the mean of per-sample
// ratios (0.556) — phased workloads like BFS depend on this.
func TestEstimateIsRatioEstimator(t *testing.T) {
	a := stats.CoreStats{Instructions: 1000, Cycles: 1000}
	b := stats.CoreStats{Instructions: 1000, Cycles: 9000}
	e := NewEstimate([]stats.CoreStats{a, b})
	if e.Samples != 2 || e.DetailedInstructions != 2000 {
		t.Fatalf("bookkeeping wrong: %+v", e)
	}
	if e.IPC.Mean < 0.199 || e.IPC.Mean > 0.201 {
		t.Errorf("IPC estimate %v; want the pooled ratio 0.2", e.IPC.Mean)
	}
	if e.IPC.HalfWidth <= 0 {
		t.Error("two differing samples must yield a positive half-width")
	}
	if z := NewEstimate(nil); z.Samples != 0 || z.IPC.Mean != 0 {
		t.Errorf("empty estimate not zero: %+v", z)
	}
}
