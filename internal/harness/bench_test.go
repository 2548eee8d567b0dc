package harness

import (
	"io"
	"os"
	"sync"
	"testing"
)

// warmStore is the result store BenchmarkWarmSweep reads: filled once
// per test binary by a cold pass of the sweep, removed by TestMain.
var warmStore struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if warmStore.dir != "" {
		os.RemoveAll(warmStore.dir)
	}
	os.Exit(code)
}

// renderWarmSweep renders tab1, fig3 and fig10 over pr,cc x kron,urand
// (the sweep of the benchmark module's sweep_warm workload) at tiny
// windows on a fresh workbench over a fresh handle of the store in dir.
func renderWarmSweep(dir string) (*Workbench, error) {
	st, err := OpenResultStore(dir)
	if err != nil {
		return nil, err
	}
	subset, err := SubsetWorkloads("pr,cc", "kron,urand")
	if err != nil {
		return nil, err
	}
	p := Bench()
	p.Warmup, p.Measure = 50_000, 50_000
	wb := NewWorkbench(p)
	wb.Store = st
	for _, id := range []string{"tab1", "fig3", "fig10"} {
		table, err := wb.Experiment(id, subset)
		if err != nil {
			return nil, err
		}
		table.Render(io.Discard)
	}
	return wb, nil
}

// BenchmarkWarmSweep is the cost of a warm sweep: 17 points, every one
// a store hit resolved on the caller, decoded and rendered. The store
// is filled in set-up; an op that simulates anything fails.
func BenchmarkWarmSweep(b *testing.B) {
	warmStore.once.Do(func() {
		if warmStore.dir, warmStore.err = os.MkdirTemp("", "harness-warm-sweep"); warmStore.err == nil {
			_, warmStore.err = renderWarmSweep(warmStore.dir)
		}
	})
	if warmStore.err != nil {
		b.Fatal(warmStore.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		wb, err := renderWarmSweep(warmStore.dir)
		if err != nil {
			b.Fatal(err)
		}
		if planned, _, _, stored := wb.Metrics.Counts(); planned != 0 || stored != 17 {
			b.Fatalf("warm sweep planned %d runs and served %d from the store, want 0 and 17", planned, stored)
		}
	}
}
