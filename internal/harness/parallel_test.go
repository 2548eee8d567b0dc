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
	done, total, _, _ := wb.Reporter.Snapshot()
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
// exactly one live simulation (one StartRun) and one stored result;
// the loser joins the winner's run and reports as cached. The counting
// reporter stub distinguishes live lines from cached ones.
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

// TestBoundWeaveDeterminism extends the tentpole guarantee to the
// bound–weave engine: multi-core runs through the harness produce
// identical numbers at -wj 1 and -wj 8.
func TestBoundWeaveDeterminism(t *testing.T) {
	mix := []WorkloadID{
		{Kernel: "pr", Graph: "kron"},
		{Kernel: "cc", Graph: "kron"},
		{Kernel: "bfs", Graph: "kron"},
		{Kernel: "pr", Graph: "urand"},
	}
	run := func(wj int) ([]float64, float64) {
		wb := NewWorkbench(fastBench())
		wb.Parallelism = 8
		wb.WeaveJobs = wj
		base4 := wb.Profile.BaseConfig(mixCores)
		return wb.RunMix(wb.mixSpec(base4.WithSDCLP(), mix...)).IPCs(),
			wb.RunMix(wb.mixSpec(base4, mix[0])).PerCore[0].IPC()
	}
	ipc1, iso1 := run(1)
	ipc8, iso8 := run(8)
	if !reflect.DeepEqual(ipc1, ipc8) {
		t.Errorf("mix IPCs differ between -wj 1 and -wj 8:\n wj1: %v\n wj8: %v", ipc1, ipc8)
	}
	if iso1 != iso8 {
		t.Errorf("isolated IPC differs between -wj 1 and -wj 8: %v vs %v", iso1, iso8)
	}

	// TestRunKeyCanary pins the key side of the contract: the quantum is
	// identity, the worker count is not.
}
