// Quickstart: simulate PageRank on a Kronecker graph with and without
// the paper's SDC+LP mechanism and print the speed-up.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"graphmem/internal/harness"
)

func main() {
	// A workbench owns the graphs and machine profiles. The bench
	// profile uses a proportionally shrunk hierarchy so this finishes
	// in seconds; use "small" or "full" for Table-I scale machines.
	wb := harness.NewWorkbench(harness.Bench())
	wb.Progress = func(msg string) { fmt.Println("  ", msg) }

	id := harness.WorkloadID{Kernel: "pr", Graph: "kron"}
	base := wb.Profile.BaseConfig(1)

	fmt.Println("simulating", id, "on the baseline machine...")
	baseline := wb.RunSingle(base, id)

	fmt.Println("simulating", id, "with SDC+LP...")
	sdclp := wb.RunSingle(base.WithSDCLP(), id)

	fmt.Println()
	fmt.Printf("baseline IPC: %.3f\n", baseline.IPC())
	fmt.Printf("SDC+LP   IPC: %.3f\n", sdclp.IPC())
	fmt.Printf("speed-up:     %+.1f%%  (paper reports +20.3%% geomean across 36 workloads)\n",
		(sdclp.IPC()/baseline.IPC()-1)*100)

	bs, ss := &baseline.Stats, &sdclp.Stats
	fmt.Println()
	fmt.Println("why: the LP routes the cache-averse gathers to the SDC, so the")
	fmt.Println("L2/LLC stop thrashing and the friendly data stays resident:")
	fmt.Printf("  L2C MPKI %.1f -> %.1f,  LLC MPKI %.1f -> %.1f\n",
		bs.L2.MPKI(bs.Instructions), ss.L2.MPKI(ss.Instructions),
		bs.LLC.MPKI(bs.Instructions), ss.LLC.MPKI(ss.Instructions))
	fmt.Printf("  avg load latency %.0f -> %.0f cycles\n",
		bs.AvgLoadLatency(), ss.AvgLoadLatency())
}
