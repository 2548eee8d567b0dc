// stride-profile reproduces the Fig. 3 characterization for any
// workload: for each per-PC stride interval, the probability that the
// access was ultimately served by DRAM. This is the observation the
// Large Predictor is built on.
//
// Run with: go run ./examples/stride-profile [-kernel cc] [-graph kron]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphmem/internal/harness"
	"graphmem/internal/kernels"
)

func main() {
	kernel := flag.String("kernel", "cc", "kernel to characterize: "+strings.Join(kernels.Names(kernels.GAP, kernels.Bonus), "|"))
	graphName := flag.String("graph", "kron", "input graph: "+strings.Join(harness.GraphNames, "|")+" (the paper uses cc.friendster)")
	flag.Parse()

	id, err := harness.ResolveWorkload(*kernel, *graphName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stride-profile:", err)
		os.Exit(1)
	}
	wb := harness.NewWorkbench(harness.Bench())
	wb.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }

	res := wb.Fig3(id)
	res.Table().Render(os.Stdout)

	fmt.Println("Reading: small-stride accesses (sequential scans of the offset and")
	fmt.Println("neighbor arrays) are served by the caches, while large strides —")
	fmt.Println("the data-dependent gathers into per-vertex property arrays — almost")
	fmt.Println("always fall through to DRAM. τ_glob = 8 blocks separates the two.")
}
