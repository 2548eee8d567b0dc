package sample

import (
	"os"
	"sync"
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
	if f := p.DetailFraction(); f != 0.2 {
		t.Errorf("DetailFraction = %v, want 0.2", f)
	}
	if f := (Plan{}).DetailFraction(); f != 1 {
		t.Errorf("disabled plan DetailFraction = %v, want 1", f)
	}
}

func TestStoreMissCommitHit(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "0123abcd"

	payload, done := st.Acquire(key)
	if payload != nil {
		t.Fatal("fresh store returned a payload")
	}
	if err := done([]byte("state")); err != nil {
		t.Fatal(err)
	}
	payload, done = st.Acquire(key)
	if string(payload) != "state" {
		t.Fatalf("hit returned %q", payload)
	}
	if err := done(nil); err != nil {
		t.Fatal(err)
	}
	if m, h := st.Misses(), st.Hits(); m != 1 || h != 1 {
		t.Errorf("misses %d hits %d, want 1/1", m, h)
	}
}

func TestStoreAbortDoesNotPublish(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "0123abcd"
	if payload, done := st.Acquire(key); payload != nil {
		t.Fatal("fresh store returned a payload")
	} else if err := done(nil); err != nil { // abort
		t.Fatal(err)
	}
	if payload, done := st.Acquire(key); payload != nil {
		t.Error("aborted commit still published a checkpoint")
	} else {
		done(nil)
	}
	if m := st.Misses(); m != 2 {
		t.Errorf("misses %d, want 2", m)
	}
}

// TestStoreSingleFlight pins the one-warm-up guarantee under
// concurrency: N goroutines racing on one key produce exactly one miss,
// and every loser observes the winner's payload.
func TestStoreSingleFlight(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "0123abcd"
	const n = 8
	var wg sync.WaitGroup
	got := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, done := st.Acquire(key)
			if payload == nil {
				done([]byte("winner"))
				return
			}
			got[i] = payload
			done(nil)
		}()
	}
	wg.Wait()
	if m, h := st.Misses(), st.Hits(); m != 1 || h != n-1 {
		t.Errorf("misses %d hits %d, want 1/%d", m, h, n-1)
	}
	for i, p := range got {
		if p != nil && string(p) != "winner" {
			t.Errorf("goroutine %d read %q", i, p)
		}
	}
}

// TestStoreRecoversFromDamagedFile pins the store-level failure policy:
// wrong-version and corrupt files are misses, and the following commit
// replaces them.
func TestStoreRecoversFromDamagedFile(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "0123abcd"
	_, done := st.Acquire(key)
	if err := done([]byte("good")); err != nil {
		t.Fatal(err)
	}

	framed, err := os.ReadFile(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	framed[8] = 0xFE // stale version
	if err := os.WriteFile(st.Path(key), framed, 0o644); err != nil {
		t.Fatal(err)
	}
	payload, done := st.Acquire(key)
	if payload != nil {
		t.Fatal("stale-version file served as a hit")
	}
	if err := done([]byte("rewarmed")); err != nil {
		t.Fatal(err)
	}
	payload, done = st.Acquire(key)
	if string(payload) != "rewarmed" {
		t.Errorf("recovery read %q", payload)
	}
	done(nil)
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
