// real-graph runs the simulator on a user-supplied graph instead of
// the synthetic Table III stand-ins: point it at a SNAP-style edge
// list (or a .gmg binary produced by cmd/gmgraph) and it compares the
// baseline hierarchy against SDC+LP on the kernel of your choice.
//
// Run with:
//
//	go run ./examples/real-graph -edges soc-Slashdot0902.txt -undirected -kernel pr
//	go run ./examples/real-graph -gmg kron20.gmg -kernel cc
//
// Without flags it demonstrates the flow on a small generated graph.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"graphmem/internal/graph"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/sim"
)

func main() {
	edges := flag.String("edges", "", "edge-list text file (SNAP format)")
	gmg := flag.String("gmg", "", ".gmg binary graph (see cmd/gmgraph)")
	undirected := flag.Bool("undirected", true, "symmetrize the edge list")
	kernel := flag.String("kernel", "pr", "kernel to run ("+strings.Join(kernels.Names(kernels.GAP, kernels.Bonus), "|")+")")
	warmup := flag.Int64("warmup", 4_000_000, "warm-up instructions")
	measure := flag.Int64("measure", 4_000_000, "measured instructions")
	flag.Parse()

	k, ok := kernels.Lookup(*kernel)
	if !ok || k.Suite == kernels.Regular {
		fmt.Fprintf(os.Stderr, "real-graph: unknown kernel %q\n", *kernel)
		os.Exit(1)
	}
	g, name, err := loadGraph(*edges, *gmg, *undirected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "real-graph:", err)
		os.Exit(1)
	}
	s := g.ComputeStats()
	fmt.Printf("graph %s: %d vertices, %d edges (avg degree %.1f)\n",
		name, s.Vertices, s.Edges, s.AvgDegree)

	// Pick the machine scale by footprint: the paper's regime needs the
	// per-vertex property arrays to dwarf the LLC.
	cfg := sim.TableI(1)
	propertyBytes := int64(s.Vertices) * 4
	if propertyBytes < 4*int64(cfg.LLCPerCoreBytes) {
		fmt.Println("graph is small relative to the Table I LLC; using the bench-scale machine")
		cfg = cfg.BenchScale()
	}
	cfg = cfg.WithWindows(*warmup, *measure)

	run := func(c sim.Config) *sim.Result {
		space := mem.NewSpace(0)
		w := sim.Workload{Name: *kernel + "." + name, Inst: k.Build(g, space), Space: space}
		return sim.RunSingleCore(c, w)
	}
	fmt.Println("running baseline...")
	base := run(cfg)
	fmt.Println("running SDC+LP...")
	sdclp := run(cfg.WithSDCLP())

	bs, ss := &base.Stats, &sdclp.Stats
	fmt.Printf("\nbaseline IPC %.3f   (L1D/L2C/LLC MPKI %.1f / %.1f / %.1f)\n",
		base.IPC(), bs.L1D.MPKI(bs.Instructions), bs.L2.MPKI(bs.Instructions), bs.LLC.MPKI(bs.Instructions))
	fmt.Printf("SDC+LP   IPC %.3f   (L1D/SDC/L2C/LLC MPKI %.1f / %.1f / %.1f / %.1f)\n",
		sdclp.IPC(), ss.L1D.MPKI(ss.Instructions), ss.SDC.MPKI(ss.Instructions),
		ss.L2.MPKI(ss.Instructions), ss.LLC.MPKI(ss.Instructions))
	fmt.Printf("speed-up %+.1f%%\n", (sdclp.IPC()/base.IPC()-1)*100)
}

func loadGraph(edges, gmg string, undirected bool) (*graph.Graph, string, error) {
	switch {
	case edges != "":
		f, err := os.Open(edges)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := graph.ReadEdgeList(f, undirected)
		return g, filepath.Base(edges), err
	case gmg != "":
		f, err := os.Open(gmg)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := graph.ReadBinary(f)
		return g, filepath.Base(gmg), err
	default:
		fmt.Println("no input given; generating a demo Kronecker graph (use -edges or -gmg for real data)")
		return graph.Kron(17, 8, 1), "demo-kron17", nil
	}
}
