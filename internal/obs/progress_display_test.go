package obs

import (
	"strings"
	"testing"
	"time"

	"graphmem/internal/check"
)

// fakeClock gives m a clock that moves only when the returned func
// advances it.
func fakeClock(m *Metrics) (advance func(time.Duration)) {
	now := time.Unix(0, 0)
	m.now = func() time.Time { return now }
	return func(d time.Duration) { now = now.Add(d) }
}

// plan plans each key as a point.
func plan(m *Metrics, keys ...string) {
	for _, k := range keys {
		m.Plan(k, true)
	}
}

// startRun starts key on m, labelled and named by itself, and returns a
// finish that reports only a detail.
func startRun(m *Metrics, out func(string), key string) (finish func(detail string)) {
	f := m.Start(out, key, key, key)
	return func(detail string) { f(detail, 0, nil, check.Summary{}) }
}

// TestProgressETASuppressedUntilTwoRuns pins the display rule: a
// single-sample moving average is noise, so the first finish line
// carries the average but no ETA; the second finish shows both.
// Snapshot keeps exposing the raw estimate either way.
func TestProgressETASuppressedUntilTwoRuns(t *testing.T) {
	var lines []string
	out := func(s string) { lines = append(lines, s) }
	m := NewMetrics()
	advance := fakeClock(m)

	plan(m, "a", "b", "c")
	f := startRun(m, out, "a")
	advance(2 * time.Second)
	f("IPC=1.0")

	if len(lines) != 1 || strings.Contains(lines[0], "eta") {
		t.Errorf("first finish must not show an ETA: %v", lines)
	}
	if !strings.Contains(lines[0], "avg") {
		t.Errorf("first finish should still show the average: %q", lines[0])
	}
	if _, _, eta, _ := m.Snapshot(); eta != 4*time.Second {
		t.Errorf("snapshot eta = %v, want 4s (2 remaining x 2s)", eta)
	}

	f = startRun(m, out, "b")
	advance(2 * time.Second)
	f("IPC=1.0")
	if len(lines) != 2 || !strings.Contains(lines[1], "eta") {
		t.Errorf("second finish should show the ETA: %v", lines)
	}
}

// TestProgressETANeverNegative pins the clamp: an over-counted sweep
// (more finishes than planned) must report a zero ETA, never a
// negative one.
func TestProgressETANeverNegative(t *testing.T) {
	m := NewMetrics()
	advance := fakeClock(m)

	plan(m, "x")
	for _, k := range []string{"x", "y"} {
		f := startRun(m, nil, k)
		advance(time.Second)
		f("")
	}
	if _, _, eta, _ := m.Snapshot(); eta != 0 {
		t.Errorf("eta = %v, want 0 when done exceeds total", eta)
	}
}

// TestProgressLinesExact pins a sink's lines byte for byte — a store
// hit, live finishes with and without a detail, an average, an ETA and
// the in-flight gauge, a done count past three digits, a narration line
// — and checks that a sink-less ledger formats nothing on a hit.
func TestProgressLinesExact(t *testing.T) {
	var lines []string
	out := func(s string) { lines = append(lines, s) }
	m := NewMetrics()
	advance := fakeClock(m)
	m.Served(out, "k0", "fig10  pr.kron                sdclp", "IPC=0.100", true)
	plan(m, "a", "b", "c")
	a, b := startRun(m, out, "a"), startRun(m, out, "b")
	advance(1500 * time.Millisecond)
	a("IPC=1.000")
	advance(2*time.Minute + 3400*time.Millisecond)
	b("")
	c := startRun(m, out, "c")
	advance(7 * time.Millisecond)
	c("IPCs=[0.1 0.2]")
	for range 1000 {
		m.Served(out, "x", "x", "", false)
	}
	m.Log(out, "building kron")
	want := []string{
		"[  1/1] fig10  pr.kron                sdclp IPC=0.100 (store) (cached)",
		"[  2/4] a IPC=1.000 | 1.5s | avg 1.5s | 1 in flight",
		"[  3/4] b | 2m4s | avg 1m3s | eta 31.6s",
		"[  4/4] c IPCs=[0.1 0.2] | 7ms | avg 42.1s",
		"[1004/1004] x (cached)",
		"building kron",
	}
	got := append(lines[:4:4], lines[len(lines)-2:]...)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	quiet := NewMetrics()
	if n := testing.AllocsPerRun(100, func() { quiet.Served(nil, "x", "x", "IPC=1.000", false) }); n != 0 {
		t.Errorf("a sink-less cached run allocates %v times, want 0", n)
	}
}

// TestPlanCountsAKeyOnce pins planning by key: a key planned again while
// it is pending counts once, a served run that was pending closes its
// plan instead of self-planning, and the point series counts only
// points.
func TestPlanCountsAKeyOnce(t *testing.T) {
	m := NewMetrics()
	plan(m, "a", "a", "b")
	m.Plan("profile", false)
	m.Plan("profile", false)
	if done, total, _, _ := m.Snapshot(); done != 0 || total != 3 {
		t.Fatalf("done/total = %d/%d after planning a twice, want 0/3", done, total)
	}
	startRun(m, nil, "a")("")
	m.Served(nil, "a", "", "", false) // a joiner of a's finished fill
	m.Served(nil, "b", "", "", true)  // planned, then found in the store
	m.Start(nil, "profile", "profile", "")("profiled", 0, nil, check.Summary{})
	if done, total, _, _ := m.Snapshot(); done != 4 || total != 4 {
		t.Errorf("done/total = %d/%d, want 4/4", done, total)
	}
	if planned, finished, cached, stored := m.Counts(); planned != 2 || finished != 1 || cached != 1 || stored != 1 {
		t.Errorf("Counts = %d/%d/%d/%d, want 2 planned points, 1 finished, 1 cached, 1 stored",
			planned, finished, cached, stored)
	}
}

// TestCheckOutcomeTalliesCheckedRuns: the ledger counts a finished run's
// checker outcome only when the run was checked (its summary names a
// level), and concatenates the retained details.
func TestCheckOutcomeTalliesCheckedRuns(t *testing.T) {
	m := NewMetrics()
	v := check.Violation{Kind: "stale-load"}
	m.Start(nil, "a", "a", "a")("", 0, nil, check.Summary{Level: "oracle", Violations: 3, Details: []check.Violation{v}})
	m.Start(nil, "b", "b", "")("", 0, nil, check.Summary{Level: "full"})
	m.Start(nil, "c", "c", "c")("", 0, nil, check.Summary{})
	runs, violations, details := m.CheckOutcome()
	if runs != 2 || violations != 3 || len(details) != 1 || details[0] != v {
		t.Errorf("CheckOutcome = %d runs, %d violations, %v; want 2, 3, [%v]", runs, violations, details, v)
	}
}
