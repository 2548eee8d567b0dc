package harness

import (
	"bytes"
	"encoding/csv"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestTab1GoldenBytes pins the text rendering byte-for-byte: wiring the
// run ledger through the workbench must not perturb table output
// (the tables go to stdout, progress to stderr).
func TestTab1GoldenBytes(t *testing.T) {
	want, err := os.ReadFile("testdata/tab1_bench.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	NewWorkbench(Bench()).Tab1().Render(&buf)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("tab1 rendering drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}}
	tab.AddRow("r1", 1.5)
	tab.AddRow("has,comma", "q\"uote")
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(recs) != 3 || recs[0][0] != "a" || recs[1][1] != "1.50" || recs[2][0] != "has,comma" {
		t.Errorf("bad CSV records: %v", recs)
	}
}

// TestWorkbenchProgressReporting exercises the ledger's progress lines
// end to end on a cheap experiment: planned totals match completed
// runs, cached rerun lines are marked, and the Progress sink receives
// everything.
func TestWorkbenchProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	wbShared.Progress = func(msg string) {
		mu.Lock()
		lines = append(lines, msg)
		mu.Unlock()
	}
	defer func() { wbShared.Progress = nil }()

	// Other tests run unplanned RunSingle calls on the shared workbench,
	// so assert deltas: one Fig2 over two workloads plans and completes
	// exactly two runs.
	done0, total0, _, _ := wbShared.Metrics.Snapshot()
	wbShared.Fig2(subsetKron())
	done, total, eta, _ := wbShared.Metrics.Snapshot()
	if done != done0+2 || total != total0+2 {
		t.Errorf("fig2 progress deltas wrong: done %d->%d total %d->%d", done0, done, total0, total)
	}
	if eta != 0 && done >= total {
		t.Errorf("nonzero ETA %v with no runs remaining", eta)
	}

	// Re-running the same experiment is fully memoized: counts advance,
	// lines are flagged cached.
	mu.Lock()
	lines = nil
	mu.Unlock()
	wbShared.Fig2(subsetKron())
	done2, total2, _, _ := wbShared.Metrics.Snapshot()
	if done2 != done+2 || total2 != total+2 {
		t.Errorf("memoized rerun counted wrong: done %d->%d total %d->%d", done, done2, total, total2)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("got %d progress lines, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if !strings.Contains(l, "(cached)") || !strings.Contains(l, "IPC=") {
			t.Errorf("cached line malformed: %q", l)
		}
	}
}

// TestSinklessMemoHitFormatsNothing: a memo hit on a workbench whose
// progress nobody reads builds no label, detail or line; before the
// labels went lazy a hit made 13 allocations. Counts stay exact, and a
// sink attached later gets the full line.
func TestSinklessMemoHitFormatsNothing(t *testing.T) {
	p := fastBench()
	p.Warmup, p.Measure = 50_000, 50_000
	wb := NewWorkbench(p)
	s := wb.Spec(p.BaseConfig(1), WorkloadID{Kernel: "triad", Graph: "reg"})
	wb.Run(s)
	if n := testing.AllocsPerRun(100, func() { wb.Run(s) }); n > 1 {
		t.Errorf("a sink-less memo hit allocates %v times, want at most 1", n)
	}
	// The live run plans itself at the live door; the 101 hits self-plan.
	if done, total, _, _ := wb.Metrics.Snapshot(); done != 102 || total != 102 {
		t.Errorf("done/total = %d/%d, want 102/102 (one live run, 101 hits)", done, total)
	}
	var lines []string
	wb.Progress = func(msg string) { lines = append(lines, msg) }
	wb.Run(s)
	want := "[103/103] result triad.reg              Baseline (bench-scale) IPC="
	if len(lines) != 1 || !strings.HasPrefix(lines[0], want) || !strings.HasSuffix(lines[0], " (cached)") {
		t.Errorf("memo hit with a sink printed %q, want one %q… (cached) line", lines, want)
	}
}
