package sim

import (
	"testing"

	"graphmem/internal/mem"
	"graphmem/internal/obs"
)

// epochCfg is a short-window machine for sampler tests.
func epochCfg() Config {
	return TableI(1).BenchScale().WithWindows(50_000, 400_000)
}

func TestEpochSamplesTileMeasureWindow(t *testing.T) {
	cfg := epochCfg().WithEpochInterval(50_000)
	res := RunSingleCore(cfg, kronWorkload(t, "pr", 16))
	if len(res.Epochs) < 2 {
		t.Fatalf("got %d epoch samples, want >= 2", len(res.Epochs))
	}
	if got := sumInstructions(res.Epochs); got != res.Stats.Instructions {
		t.Errorf("epoch instructions sum %d != measured window %d", got, res.Stats.Instructions)
	}
	// Samples are contiguous, ordered and indexed sequentially.
	for i := range res.Epochs {
		e := &res.Epochs[i]
		if e.Index != i {
			t.Errorf("epoch %d has index %d", i, e.Index)
		}
		if e.EndInstr <= e.StartInstr {
			t.Errorf("epoch %d empty or reversed: [%d, %d]", i, e.StartInstr, e.EndInstr)
		}
		if i > 0 && e.StartInstr != res.Epochs[i-1].EndInstr {
			t.Errorf("epoch %d starts at %d, previous ended at %d",
				i, e.StartInstr, res.Epochs[i-1].EndInstr)
		}
		if e.Stats.Instructions != e.Instructions() {
			t.Errorf("epoch %d delta instructions %d != boundary span %d",
				i, e.Stats.Instructions, e.Instructions())
		}
	}
	// All full epochs cover at least the interval; cycles accumulate too.
	for i := range res.Epochs[:len(res.Epochs)-1] {
		if got := res.Epochs[i].Instructions(); got < cfg.EpochInterval {
			t.Errorf("epoch %d spans %d instructions, want >= interval %d", i, got, cfg.EpochInterval)
		}
		if res.Epochs[i].Stats.Cycles <= 0 {
			t.Errorf("epoch %d has no cycles", i)
		}
	}
	// The epoch deltas sum back to the window counters.
	var sum obs.EpochSample
	for i := range res.Epochs {
		sum.Stats.Add(&res.Epochs[i].Stats)
	}
	if sum.Stats != res.Stats {
		t.Errorf("summed epoch deltas differ from window stats:\n sum %+v\n win %+v", sum.Stats, res.Stats)
	}
}

func TestEpochSamplingDoesNotPerturbResults(t *testing.T) {
	off := RunSingleCore(epochCfg(), kronWorkload(t, "bfs", 16))
	on := RunSingleCore(epochCfg().WithEpochInterval(25_000), kronWorkload(t, "bfs", 16))
	if off.Stats != on.Stats {
		t.Errorf("epoch sampling changed simulation results:\n off %+v\n on  %+v", off.Stats, on.Stats)
	}
	if len(off.Epochs) != 0 {
		t.Errorf("sampling off must yield no epochs, got %d", len(off.Epochs))
	}
	if len(on.Epochs) < 2 {
		t.Errorf("sampling on yielded %d epochs", len(on.Epochs))
	}
}

func TestEpochSamplingShortTrace(t *testing.T) {
	// A trace that ends before the windows fill still yields a
	// consistent (single-epoch-or-more) series via finish().
	cfg := TableI(1).BenchScale().WithWindows(10_000_000, 10_000_000).WithEpochInterval(100_000)
	res := RunSingleCore(cfg, kronWorkload(t, "tc", 14))
	if res.Stats.Instructions == 0 {
		t.Skip("kernel emitted nothing")
	}
	if got := sumInstructions(res.Epochs); got != res.Stats.Instructions {
		t.Errorf("short-trace epochs sum %d != measured %d", got, res.Stats.Instructions)
	}
}

func TestMultiCoreEpochSeries(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(20_000, 120_000).WithEpochInterval(30_000)
	mkW := func(slot int, kernel string) Workload {
		g := testGraphCache(16)
		space := mem.NewSpace(slot)
		return Workload{Name: kernel, Inst: buildKernel(kernel, g, space), Space: space}
	}
	res := RunMultiCore(cfg, []Workload{mkW(0, "pr"), {}})
	if len(res.Epochs) != 2 {
		t.Fatalf("epoch series count %d, want one per core", len(res.Epochs))
	}
	if len(res.Epochs[0]) < 2 {
		t.Errorf("active core has %d epochs", len(res.Epochs[0]))
	}
	if got := sumInstructions(res.Epochs[0]); got != res.PerCore[0].Instructions {
		t.Errorf("core 0 epochs sum %d != measured %d", got, res.PerCore[0].Instructions)
	}
	if len(res.Epochs[1]) != 0 {
		t.Errorf("idle core has %d epochs, want 0", len(res.Epochs[1]))
	}
}

// sumInstructions totals the instructions an epoch series covers.
func sumInstructions(epochs []obs.EpochSample) int64 {
	var n int64
	for i := range epochs {
		n += epochs[i].Instructions()
	}
	return n
}
