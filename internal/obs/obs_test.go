package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphmem/internal/stats"
)

func sampleSeries() []EpochSample {
	mk := func(idx int, start, n int64) EpochSample {
		var s stats.CoreStats
		s.Instructions = n
		s.Cycles = 2 * n
		return EpochSample{Index: idx, StartInstr: start, EndInstr: start + n, Stats: s}
	}
	return []EpochSample{mk(0, 1000, 500), mk(1, 1500, 500), mk(2, 2000, 250)}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("gmsim-test")
	m.Profile = "bench"
	m.Workload = "pr.kron"
	m.Config = RunConfig{Name: "SDC+LP", Cores: 1, Routing: "lp", Warmup: 100, Measure: 200, EpochInterval: 50}
	m.Final.Instructions = 200
	m.Final.Cycles = 400
	m.Derived = DeriveMetrics(&m.Final)
	m.Epochs = sampleSeries()
	m.Finalize(time.Now().Add(-2 * time.Second))

	if m.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version %d", m.SchemaVersion)
	}
	if m.WallClockSec < 1.5 {
		t.Errorf("wall clock %.2fs, want ~2s", m.WallClockSec)
	}
	if m.Runtime.GoVersion == "" || m.Runtime.NumCPU <= 0 {
		t.Errorf("runtime info not captured: %+v", m.Runtime)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "pr.kron" || back.Config.Name != "SDC+LP" || len(back.Epochs) != 3 {
		t.Errorf("round-trip lost fields: %+v", back)
	}
	if back.Derived.IPC != 0.5 {
		t.Errorf("derived IPC %g", back.Derived.IPC)
	}
}

func TestProgressCountsAndETA(t *testing.T) {
	var lines []string
	out := func(s string) { lines = append(lines, s) }
	m := NewMetrics()
	advance := fakeClock(m)

	// Plans cover live runs only; the cache hit self-plans (+1/+1).
	plan(m, "a", "b", "c")
	for _, k := range []string{"a", "b"} {
		finish := startRun(m, out, k)
		advance(2 * time.Second)
		finish("IPC=1.0")
	}
	m.Served(out, "d", "d", "IPC=1.0", false)

	done, total, eta, _ := m.Snapshot()
	if done != 3 || total != 4 {
		t.Fatalf("done/total = %d/%d, want 3/4", done, total)
	}
	if avg := m.avgLocked(); avg != 2*time.Second {
		t.Errorf("avg = %v, want 2s", avg)
	}
	if eta != 2*time.Second {
		t.Errorf("eta = %v, want 2s (1 remaining x 2s)", eta)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], "[  1/3]") || !strings.Contains(lines[0], "2s") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "eta") {
		t.Errorf("second line should carry an ETA: %q", lines[1])
	}
	if !strings.Contains(lines[2], "(cached)") {
		t.Errorf("cached line = %q", lines[2])
	}
}

func TestProgressParallelETAAndInFlight(t *testing.T) {
	var lines []string
	out := func(s string) { lines = append(lines, s) }
	m := NewMetrics()
	advance := fakeClock(m)

	plan(m, "a", "b", "c", "d")
	f1 := startRun(m, out, "a")
	f2 := startRun(m, out, "b")
	if got := len(m.inflight); got != 2 {
		t.Fatalf("%d runs in flight, want 2", got)
	}
	advance(2 * time.Second)
	f1("IPC=1.0")

	// One of two workers finished: 3 runs remain at 2s average across a
	// peak concurrency of 2 -> 3s of wall clock, and 1 run in flight.
	if _, _, eta, _ := m.Snapshot(); eta != 3*time.Second {
		t.Errorf("eta = %v, want 3s (3 remaining x 2s / 2 workers)", eta)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "1 in flight") {
		t.Errorf("first line should report the in-flight run: %v", lines)
	}

	f2("IPC=1.0")
	if got := len(m.inflight); got != 0 {
		t.Errorf("%d runs in flight after all finishes, want 0", got)
	}
	if strings.Contains(lines[1], "in flight") {
		t.Errorf("an idle ledger should omit the in-flight gauge: %q", lines[1])
	}
	if _, _, eta, peak := m.Snapshot(); eta != 2*time.Second || peak != 2 {
		t.Errorf("eta = %v, peak %d, want 2s (2 remaining x 2s / 2 workers) and 2", eta, peak)
	}
}

func TestProgressNilSinkIsSilent(t *testing.T) {
	m := NewMetrics()
	plan(m, "x")
	startRun(m, nil, "x")("")
	m.Log(nil, "ignored")
	if done, total, _, _ := m.Snapshot(); done != 1 || total != 1 {
		t.Errorf("a sink-less ledger must still count: %d/%d", done, total)
	}
}

func TestProgressUnplannedTotal(t *testing.T) {
	var lines []string
	startRun(NewMetrics(), func(s string) { lines = append(lines, s) }, "x")("")
	if len(lines) != 1 || !strings.Contains(lines[0], "/?]") {
		t.Errorf("unplanned total should render '?': %v", lines)
	}
}

func TestProfileFlagsStartStop(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := RegisterProfileFlags(fs)
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "trace.out")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-trace", tr}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the profiles are non-trivial.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem, tr} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s not written: %v", path, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestProfileFlagsNoopWhenUnset(t *testing.T) {
	p := &ProfileFlags{}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
