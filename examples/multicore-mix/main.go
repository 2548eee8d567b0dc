// multicore-mix runs one 4-thread multi-programmed mix (the Fig. 14
// setting) on the baseline and SDC+LP machines and reports the
// weighted speed-up of Section IV-D.
//
// Run with: go run ./examples/multicore-mix
package main

import (
	"fmt"

	"graphmem/internal/harness"
	"graphmem/internal/sim"
)

func main() {
	profile := harness.Bench()
	wb := harness.NewWorkbench(profile)
	wb.Progress = func(msg string) { fmt.Println("  ", msg) }

	mix := []harness.WorkloadID{
		{Kernel: "pr", Graph: "kron"},
		{Kernel: "cc", Graph: "urand"},
		{Kernel: "bfs", Graph: "kron"},
		{Kernel: "sssp", Graph: "urand"},
	}
	fmt.Println("mix:", mix)

	runMix := func(cfg sim.Config) []float64 {
		cfg = cfg.WithWindows(profile.MixWarmup, profile.MixMeasure)
		ws := make([]sim.Workload, len(mix))
		for i, id := range mix {
			ws[i] = wb.Workload(id, i)
		}
		return sim.RunMultiCore(cfg, ws).IPCs()
	}

	base4 := profile.BaseConfig(4)
	fmt.Println("running the mix on the 4-core baseline...")
	baseIPCs := runMix(base4)
	fmt.Println("running the mix with per-core SDC+LP...")
	sdclpIPCs := runMix(base4.WithSDCLP())

	// Isolated IPCs weight the metric (Section IV-D).
	fmt.Println("running each thread in isolation on the same machine...")
	singles := make([]float64, len(mix))
	for i, id := range mix {
		cfg := base4.WithWindows(profile.MixWarmup, profile.MixMeasure)
		ws := make([]sim.Workload, 4)
		ws[0] = wb.Workload(id, 0)
		singles[i] = sim.RunMultiCore(cfg, ws).PerCore[0].IPC()
	}

	var wsBase, wsSDC float64
	fmt.Println()
	fmt.Printf("%-18s %-10s %-10s %-10s\n", "thread", "isolated", "baseline", "SDC+LP")
	for i, id := range mix {
		fmt.Printf("%-18s %-10.3f %-10.3f %-10.3f\n", id.String(), singles[i], baseIPCs[i], sdclpIPCs[i])
		wsBase += baseIPCs[i] / singles[i]
		wsSDC += sdclpIPCs[i] / singles[i]
	}
	fmt.Printf("\nweighted speed-up of SDC+LP over baseline: %+.1f%%\n", (wsSDC/wsBase-1)*100)
	fmt.Println("(paper: +20.2% geomean over 50 mixes, max +69.3%)")
}
