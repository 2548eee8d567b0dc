package harness

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"graphmem/internal/graph"
	"graphmem/internal/sim"
)

// TestRunSinglePanicPropagation pins the worker pool's crash contract:
// when a memoized run panics, the owner and every joiner observe the
// panic (no deadlock), the key is unregistered so later callers retry
// instead of joining a dead latch, and the owner's pool slot is
// released so the pool stays usable.
func TestRunSinglePanicPropagation(t *testing.T) {
	wb := NewWorkbench(fastBench())
	// One slot: a leaked slot would hang the follow-up run below.
	wb.Parallelism = 1

	bad := WorkloadID{Kernel: "nope", Graph: "reg"}
	cfg := wb.Profile.BaseConfig(1)

	// Two concurrent requests for the same crashing key: whichever
	// becomes the owner panics inside Workload(); the other either joins
	// the latch or retries after the key is unregistered. Both must
	// observe a panic.
	panics := make([]any, 2)
	var wg sync.WaitGroup
	for i := range panics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			wb.RunSingle(cfg, bad)
		}()
	}
	wg.Wait()
	for i, p := range panics {
		if p == nil {
			t.Fatalf("goroutine %d returned without observing the panic", i)
		}
		if s, ok := p.(string); !ok || s != "harness: unknown regular kernel nope" {
			t.Errorf("goroutine %d recovered %v; want the Workload panic value", i, p)
		}
	}

	// The crashed key must not linger as an in-flight call.
	if wb.runs.has(wb.Spec(cfg, bad).Key()) {
		t.Error("crashed run left its key registered")
	}

	// A retry of the same key re-executes (and re-panics) rather than
	// joining a poisoned latch.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("retry of the crashed key did not re-execute")
			}
		}()
		wb.RunSingle(cfg, bad)
	}()

	// The single worker slot must have been released: a valid run on the
	// same pool completes. Run it on a watchdog so a leaked slot fails
	// crisply instead of timing out the package.
	done := make(chan *sim.Result, 1)
	go func() { done <- wb.RunSingle(cfg, WorkloadID{Kernel: "triad", Graph: "reg"}) }()
	select {
	case r := <-done:
		if r == nil || r.IPC() <= 0 {
			t.Errorf("follow-up run returned %v; want a live result", r)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("follow-up run hung: crashed run leaked its worker slot")
	}
}

// TestGraphBuildPanicRetries pins the same contract for the graph
// single-flight: a panicking build propagates to its caller, is
// unregistered, and a later request retries the build.
func TestGraphBuildPanicRetries(t *testing.T) {
	p := fastBench()
	want := graph.Kron(8, 4, 1)
	calls := 0
	p.Graphs = map[string]GraphSpec{
		"flaky": {Name: "flaky", Build: func() *graph.Graph {
			calls++
			if calls == 1 {
				panic("flaky build")
			}
			return want
		}},
	}
	wb := NewWorkbench(p)

	func() {
		defer func() {
			if p := recover(); p != "flaky build" {
				t.Fatalf("first Graph call recovered %v; want the build panic", p)
			}
		}()
		wb.Graph("flaky")
	}()

	if g := wb.Graph("flaky"); g != want {
		t.Errorf("retry returned %p; want the rebuilt graph %p", g, want)
	}
	if calls != 2 {
		t.Errorf("build ran %d times; want 2 (panic, then retry)", calls)
	}
}

// TestParallelismExceedsJobCount runs a pool far wider than the job
// list: the excess slots must be harmless — all jobs complete, the
// progress plan closes exactly, and the results are bit-identical to a
// sequential schedule.
func TestParallelismExceedsJobCount(t *testing.T) {
	ids := []WorkloadID{
		{Kernel: "triad", Graph: "reg"},
		{Kernel: "matvec", Graph: "reg"},
		{Kernel: "stencil", Graph: "reg"},
	}
	run := func(parallelism int) (*Workbench, []*sim.Result) {
		wb := NewWorkbench(fastBench())
		wb.Parallelism = parallelism
		return wb, wb.runAll(wb.specsFor(wb.BaseConfig(), ids))
	}
	wbWide, wide := run(64)
	_, narrow := run(1)

	if len(wide) != len(ids) {
		t.Fatalf("got %d results for %d jobs", len(wide), len(ids))
	}
	for i := range wide {
		if wide[i] == nil || narrow[i] == nil {
			t.Fatalf("job %d returned nil result", i)
		}
		if wide[i].IPC() != narrow[i].IPC() {
			t.Errorf("%s: IPC %v at -j 64 vs %v at -j 1", ids[i], wide[i].IPC(), narrow[i].IPC())
		}
	}
	done, total, _, _ := wbWide.Reporter.Snapshot()
	if done != total || done != len(ids) {
		t.Errorf("progress did not close: %d/%d done, want %d/%d", done, total, len(ids), len(ids))
	}
}

// TestIsolatedRunPanicPropagation extends the crash contract to the
// door's multi-core side, on an isolated run (a mix whose other slots
// are idle) with a result store attached, under both engines: joiners
// of a panicking run observe the panic, the key is retried, and the
// run's pool slots and its store claim come back.
func TestIsolatedRunPanicPropagation(t *testing.T) {
	for _, weave := range []int{0, 2} {
		st, err := OpenResultStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		wb := NewWorkbench(fastBench())
		wb.Parallelism, wb.WeaveJobs, wb.Store = 2, weave, st
		bad := wb.mixSpec(wb.Profile.BaseConfig(mixCores), WorkloadID{Kernel: "nope", Graph: "reg"})

		// The third call runs after the first two: it re-executes (and
		// re-panics) instead of joining a dead latch — or blocking on a
		// store claim the crashed run never gave back.
		panics := make([]any, 3)
		crash := func(i int) {
			defer func() { panics[i] = recover() }()
			wb.RunMix(bad)
		}
		var wg sync.WaitGroup
		for i := range panics[:2] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				crash(i)
			}()
		}
		wg.Wait()
		crash(2)
		for i, p := range panics {
			if p != "harness: unknown regular kernel nope" {
				t.Errorf("wj=%d call %d recovered %v; want the Workload panic value", weave, i, p)
			}
		}
		if wb.runs.has(bad.Key()) {
			t.Errorf("wj=%d: crashed isolated run left its key registered", weave)
		}
		if claims, _ := filepath.Glob(filepath.Join(st.Dir(), "*.claim")); len(claims) != 0 || st.Contains(bad.StoreKey()) {
			t.Errorf("wj=%d: crashed run left claims %v or a published entry", weave, claims)
		}

		// Every slot must be back: a run that needs the whole pool
		// completes. On a watchdog, so a leak fails crisply.
		done := make(chan int, 1)
		go func() {
			n := wb.acquireN(2)
			wb.releaseN(n)
			done <- n
		}()
		select {
		case n := <-done:
			if n != 2 {
				t.Errorf("wj=%d: reclaimed %d slots, want 2", weave, n)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("wj=%d: crashed isolated run leaked its pool slots", weave)
		}
	}
}

// TestConcurrentPrepareSharesOneTranspose prepares two pr workloads on
// one fresh graph at once, as runAll does at -j > 1: both kernels need
// the transpose, and exactly one may be built (run under -race, this
// also proves the first use is synchronized). The graph is a directed
// one: the undirected generators' graphs are their own transpose and
// never build one.
func TestConcurrentPrepareSharesOneTranspose(t *testing.T) {
	p := fastBench()
	g := graph.WebLike(1024, 8, 7)
	p.Graphs = map[string]GraphSpec{"tiny": {Name: "tiny", Build: func() *graph.Graph { return g }}}
	wb := NewWorkbench(p)

	trans := make([]*graph.Graph, 2)
	var wg sync.WaitGroup
	for i := range trans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wb.Workload(WorkloadID{Kernel: "pr", Graph: "tiny"}, i)
			trans[i] = g.TransposeCached()
		}()
	}
	wg.Wait()
	if trans[0] == nil || trans[0] != trans[1] {
		t.Errorf("concurrent preparations saw transposes %p and %p; want one", trans[0], trans[1])
	}
	if back := trans[0].TransposeCached(); back != g {
		t.Errorf("transpose's transpose is %p, want the original graph %p", back, g)
	}
}

// TestFig3RunsInsideThePool pins that the Fig. 3 profiling run counts
// against -j like every other simulation: with one slot, a concurrent
// Fig3 and RunSingle (as two gmserved sweeps would issue them) are never
// simulating at the same time.
func TestFig3RunsInsideThePool(t *testing.T) {
	wb := NewWorkbench(fastBench())
	wb.Parallelism = 1
	// No graph to build: both runs reach their simulation at once.
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wb.Fig3(id)
	}()
	go func() {
		defer wg.Done()
		wb.RunSingle(wb.Profile.BaseConfig(1), id)
	}()
	wg.Wait()
	if done, _, _, _ := wb.Reporter.Snapshot(); done != 2 {
		t.Errorf("%d runs finished, want the 2 live ones", done)
	}
	if peak := wb.Reporter.Peak(); peak != 1 {
		t.Errorf("%d simulations were in flight at once on a -j 1 workbench", peak)
	}
}
