// Command gmtrace captures, inspects and summarizes memory traces of
// the instrumented kernels — useful for studying the access streams
// independently of the timing simulator.
//
// Usage:
//
//	gmtrace -kernel pr -graph kron -profile bench -limit 1000000 -out pr.kron.gmt
//	gmtrace -in pr.kron.gmt -dump 20
//	gmtrace -in pr.kron.gmt -summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"graphmem"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

func main() { os.Exit(run()) }

// fail reports err the way every gmtrace error ends: on stderr, exit 1.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "gmtrace:", err)
	return 1
}

// run is the tool. It returns the exit status instead of calling
// os.Exit, so the deferred profile stop runs on every path.
func run() int {
	kernel := flag.String("kernel", "pr", "kernel to trace")
	graphName := flag.String("graph", "kron", "input graph")
	profileName := flag.String("profile", "bench", "scale profile")
	limit := flag.Int64("limit", 1_000_000, "max records to capture")
	out := flag.String("out", "", "capture: output trace file")
	in := flag.String("in", "", "inspect: input trace file")
	dump := flag.Int("dump", 0, "inspect: print the first N records")
	summary := flag.Bool("summary", false, "inspect: print stream summary")
	prof := graphmem.RegisterProfilingFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "gmtrace:", err)
		}
	}()

	switch {
	case *out != "":
		err = capture(*kernel, *graphName, *profileName, *limit, *out)
	case *in != "":
		err = inspect(*in, *dump, *summary)
	default:
		err = errors.New("use -out to capture or -in to inspect")
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func capture(kernel, graphName, profileName string, limit int64, outPath string) error {
	profile, err := graphmem.ProfileByName(profileName)
	if err != nil {
		return err
	}
	wb := graphmem.NewWorkbench(profile)
	wb.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	w := wb.Workload(graphmem.WorkloadID{Kernel: kernel, Graph: graphName}, 0)

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	sink, err := trace.NewWriter(f, limit)
	if err != nil {
		return err
	}
	tr := trace.New(sink)
	for !tr.Done() {
		before := tr.Seq()
		w.Inst.Run(tr)
		if tr.Seq() == before {
			break
		}
	}
	if err := sink.Flush(); err != nil {
		return err
	}
	fmt.Printf("captured %d records of %s.%s to %s\n", sink.Count(), kernel, graphName, outPath)
	return nil
}

func inspect(inPath string, dump int, summary bool) error {
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}

	var (
		n, loads, stores, instr, deps int64
		perPC                         = map[uint64]int64{}
		last                          = map[uint64]mem.BlockAddr{}
		buckets                       [trace.StrideBuckets]int64
	)
	for i := 0; ; i++ {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if i < dump {
			kind := "LD"
			if rec.Write {
				kind = "ST"
			}
			fmt.Printf("%8d  %s pc=%#x addr=%#x size=%d nonmem=%d dep=%d\n",
				i, kind, rec.PC, uint64(rec.Addr), rec.Size, rec.NonMem, rec.DepDist)
		}
		n++
		instr += int64(rec.NonMem) + 1
		if rec.Write {
			stores++
		} else {
			loads++
		}
		if rec.DepDist > 0 {
			deps++
		}
		perPC[rec.PC]++
		blk := rec.Addr.Block()
		if prev, ok := last[rec.PC]; ok {
			d := int64(blk) - int64(prev)
			if d < 0 {
				d = -d
			}
			buckets[trace.BucketOf(uint64(d))]++
		}
		last[rec.PC] = blk
	}
	if !summary {
		return nil
	}
	fmt.Printf("records %d (loads %d, stores %d), instructions %d, dependent %d (%.1f%%)\n",
		n, loads, stores, instr, deps, 100*float64(deps)/float64(max64(n, 1)))
	fmt.Printf("distinct PCs: %d\n", len(perPC))
	type pcCount struct {
		pc uint64
		c  int64
	}
	var pcs []pcCount
	for pc, c := range perPC {
		pcs = append(pcs, pcCount{pc, c})
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i].c > pcs[j].c })
	for i, p := range pcs {
		if i >= 10 {
			break
		}
		fmt.Printf("  pc %#x: %d accesses\n", p.pc, p.c)
	}
	fmt.Println("per-PC block-stride histogram:")
	for b := 0; b < trace.StrideBuckets; b++ {
		fmt.Printf("  %-10s %d\n", trace.BucketLabel(b), buckets[b])
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
