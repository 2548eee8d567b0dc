// Command gmgraph generates, converts and inspects input graphs:
//
//	gmgraph -gen kron -scale 19 -out kron.gmg          # synthetic inputs
//	gmgraph -convert soc-LiveJournal.txt -undirected -out lj.gmg
//	gmgraph -stats kron.gmg
//
// Binary .gmg files (internal/graph's graph file, with a CRC) load an
// order of magnitude faster than re-running the generators or parsing
// edge lists; graph.ReadBinary loads them (examples/real-graph -gmg).
// -out publishes atomically, so a failed run leaves any old file whole.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"graphmem/internal/graph"
	"graphmem/internal/harness"
	"graphmem/internal/obs"
	"graphmem/internal/store"
)

func main() { os.Exit(run()) }

// run is the tool. It returns the exit status instead of calling
// os.Exit, so the deferred profile stop runs on every path.
func run() int {
	gen := flag.String("gen", "", "generate: "+strings.Join(harness.GraphNames, "|"))
	scale := flag.Int("scale", 18, "generate: log2 of the vertex count (kron/urand) or vertex-count scale")
	ef := flag.Int64("ef", 8, "generate: edge factor / average degree")
	seed := flag.Uint64("seed", 42, "generate: RNG seed")
	convert := flag.String("convert", "", "convert: edge-list text file to read")
	undirected := flag.Bool("undirected", false, "convert: symmetrize edges")
	out := flag.String("out", "", "output .gmg file for -gen/-convert")
	stats := flag.String("stats", "", "inspect: .gmg file to summarize")
	prof := obs.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "gmgraph:", err)
		}
	}()

	switch {
	case *gen != "":
		var g *graph.Graph
		if g, err = generate(*gen, *scale, *ef, *seed); err == nil {
			err = save(g, *out)
		}
	case *convert != "":
		err = convertEdgeList(*convert, *undirected, *out)
	case *stats != "":
		err = printStats(*stats)
	default:
		err = errors.New("use -gen, -convert or -stats")
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// generate builds one generator's graph; its cases are the Table III
// names harness.GraphNames lists.
func generate(kind string, scale int, ef int64, seed uint64) (*graph.Graph, error) {
	// 2^31 vertices overflow the int32 vertex IDs.
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("-scale %d out of range [1, 30]", scale)
	}
	if ef < 1 {
		return nil, fmt.Errorf("-ef %d must be at least 1", ef)
	}
	n := int32(1) << uint(scale)
	switch kind {
	case "kron":
		return graph.Kron(scale, ef, seed), nil
	case "urand":
		return graph.Urand(n, ef*int64(n)/2, seed), nil
	case "twitter":
		return graph.PowerLaw(n, int(ef), 0.15, false, seed), nil
	case "friendster":
		return graph.PowerLaw(n, int(ef), 0.05, true, seed), nil
	case "web":
		return graph.WebLike(n, int(ef), seed), nil
	case "road":
		side := int32(1) << uint(scale/2)
		return graph.RoadGrid(side, side, 255, seed), nil
	default:
		return nil, fmt.Errorf("unknown generator %q (%s)", kind, strings.Join(harness.GraphNames, "|"))
	}
}

func save(g *graph.Graph, path string) error {
	if path == "" {
		return fmt.Errorf("missing -out")
	}
	// Whole or not at all: a failed write leaves a file at path as it was.
	if err := store.WriteFileAtomic(filepath.Dir(path), path, g.WriteBinary); err != nil {
		return err
	}
	s := g.ComputeStats()
	fmt.Printf("wrote %s: %d vertices, %d edges (max degree %d, avg %.1f)\n",
		path, s.Vertices, s.Edges, s.MaxDegree, s.AvgDegree)
	return nil
}

// convertEdgeList reads an edge-list text file and saves it as .gmg.
func convertEdgeList(path string, undirected bool, out string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f, undirected)
	if err != nil {
		return err
	}
	return save(g, out)
}

// printStats summarizes a .gmg file.
func printStats(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.ReadBinary(f)
	if err != nil {
		return err
	}
	s := g.ComputeStats()
	fmt.Printf("vertices    %d\n", s.Vertices)
	fmt.Printf("edges       %d\n", s.Edges)
	fmt.Printf("max degree  %d\n", s.MaxDegree)
	fmt.Printf("avg degree  %.2f\n", s.AvgDegree)
	fmt.Printf("zero out    %d\n", s.Zeros)
	fmt.Printf("weighted    %v\n", g.Weighted())
	fmt.Println("degree histogram (2^i buckets):")
	for i, c := range graph.DegreeHistogram(g) {
		if c > 0 {
			fmt.Printf("  2^%-2d %d\n", i, c)
		}
	}
	return nil
}

// fail reports err the way every gmgraph error ends: on stderr, exit 1.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "gmgraph:", err)
	return 1
}
