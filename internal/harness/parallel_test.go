package harness

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graphmem/internal/sim"
)

// fastBench clones the bench profile with tiny instruction windows:
// scheduling behaviour — not simulation fidelity — is what these tests
// exercise, and determinism must hold at any window length.
func fastBench() Profile {
	p := Bench()
	p.Warmup, p.Measure = 300_000, 300_000
	p.MixWarmup, p.MixMeasure = 300_000, 150_000
	return p
}

// runFig3Fig10 renders Fig. 3 + Fig. 10 on a fresh workbench at the
// given parallelism and returns the concatenated table bytes, the
// memo-key inventory, and the final done/total progress counts.
func runFig3Fig10(t *testing.T, parallelism int) (string, []string, int, int) {
	t.Helper()
	wb := NewWorkbench(fastBench())
	wb.Parallelism = parallelism
	var buf bytes.Buffer
	wb.Fig3(WorkloadID{Kernel: "cc", Graph: "kron"}).Table().Render(&buf)
	wb.Fig10(subsetKron()).Table().Render(&buf)
	done, total, _, _ := wb.Metrics.Snapshot()
	return buf.String(), wb.SortedResultKeys(), done, total
}

// TestParallelDeterminism is the tentpole guarantee: the rendered
// experiment output and the set of memoized runs are byte-identical
// whether the scheduler runs one simulation at a time or eight.
func TestParallelDeterminism(t *testing.T) {
	seq, seqKeys, seqDone, seqTotal := runFig3Fig10(t, 1)
	par, parKeys, parDone, parTotal := runFig3Fig10(t, 8)
	if seq != par {
		t.Errorf("rendered tables differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
	if !reflect.DeepEqual(seqKeys, parKeys) {
		t.Errorf("memo keys differ:\n j1: %v\n j8: %v", seqKeys, parKeys)
	}
	// Plan accounting must close exactly: every planned run completed
	// and every cache hit self-planned, at either parallelism.
	if seqDone != seqTotal || parDone != parTotal {
		t.Errorf("progress counts did not close: j1 %d/%d, j8 %d/%d",
			seqDone, seqTotal, parDone, parTotal)
	}
	if seqDone != parDone {
		t.Errorf("run counts differ between parallelism levels: %d vs %d", seqDone, parDone)
	}
}

// TestSingleFlightDedup asserts the single-flight guarantee: two
// goroutines requesting the same (config, workload) point produce
// exactly one live simulation and one stored result; the loser joins
// the winner's run and reports as cached. The counting sink tells live
// lines from cached ones.
func TestSingleFlightDedup(t *testing.T) {
	wb := NewWorkbench(fastBench())
	wb.Parallelism = 4
	var mu sync.Mutex
	var lines []string
	wb.Progress = func(msg string) {
		mu.Lock()
		lines = append(lines, msg)
		mu.Unlock()
	}

	// The regular suite needs no graph build, keeping the race window
	// focused on the run itself.
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	cfg := wb.Profile.BaseConfig(1)
	var rs [2]*sim.Result
	var wg sync.WaitGroup
	for i := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs[i] = wb.RunSingle(cfg, id)
		}()
	}
	wg.Wait()

	if rs[0] != rs[1] {
		t.Errorf("concurrent RunSingle returned distinct results: %p vs %p", rs[0], rs[1])
	}
	if keys := wb.SortedResultKeys(); len(keys) != 1 {
		t.Errorf("want exactly one stored result, got %v", keys)
	}
	mu.Lock()
	defer mu.Unlock()
	live, cached := 0, 0
	for _, l := range lines {
		if strings.Contains(l, "(cached)") {
			cached++
		} else {
			live++
		}
	}
	if live != 1 || cached != 1 {
		t.Errorf("want 1 live + 1 cached progress line, got %d live / %d cached:\n%s",
			live, cached, strings.Join(lines, "\n"))
	}
}

// TestPanickingRunClosesLedger: a run that panics — while its workload
// is prepared, or inside the simulator — still closes its ledger entry,
// so the progress line reaches done == total and /metrics reads no run
// in flight, and it never counts as a finished point.
func TestPanickingRunClosesLedger(t *testing.T) {
	wb := NewWorkbench(fastBench())
	triad := WorkloadID{Kernel: "triad", Graph: "reg"}
	crash := func(cfg sim.Config, id WorkloadID) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on %s did not panic", cfg.Name, id)
			}
		}()
		wb.RunSingle(cfg, id)
	}
	crash(wb.BaseConfig(), WorkloadID{Kernel: "nosuchkernel", Graph: "reg"}) // in wb.Workload
	wb.RunSingle(wb.BaseConfig(), triad)
	crash(wb.BaseConfig().WithPrefetchers("bogus"), triad) // in sim.NewSystem

	if done, total, _, _ := wb.Metrics.Snapshot(); done != total || total != 3 {
		t.Errorf("progress reads %d/%d after two crashed runs and one good one, want 3/3", done, total)
	}
	if _, finished, _, _ := wb.Metrics.Counts(); finished != 1 {
		t.Errorf("%d finished points, want the one good run", finished)
	}
	var prom strings.Builder
	wb.Metrics.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), "\ngraphmem_runs_in_flight 0\n") {
		t.Errorf("/metrics shows a crashed run in flight:\n%s", prom.String())
	}
}
