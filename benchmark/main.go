// Command benchmark is the repository's benchmark: six named workloads
// over the simulator, the sweep harness, the result store and the
// gmserved service, each reporting the same end-to-end metrics, and a
// traced repetition that splits the time between the layers. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// run.sh builds it (it is a module of its own) and runs it from the
// repository root:
//
//	bash benchmark/run.sh                               # all six workloads, 3 repetitions each
//	bash benchmark/run.sh -only detail_sim -reps 5
//	bash benchmark/run.sh -trace out.json               # plus one traced repetition per workload
//	bash benchmark/run.sh -selfcheck                    # two sets on the same code must agree
//	bash benchmark/run.sh -workload cold_point -seed 2 -seconds 12 -trace 0   # one run, as the driver makes it
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload  = flag.String("workload", "", "run this one workload once and print its result object on the last line (the benchmark driver's mode)")
		seed      = flag.Uint64("seed", 1, "input seed: 1 uses the bench profile's own graph seeds, any other value other graphs and another request order")
		seconds   = flag.Float64("seconds", defaultRunSeconds, "seconds one run measures for")
		trace     = flag.String("trace", "0", "0: untraced run reporting end-to-end metrics; 1: traced run reporting per-layer metrics; a path: traced, and write the spans there as Chrome trace-event JSON")
		workers   = flag.Int("j", defaultWorkers(), "sweep parallelism and weave workers, twice the gmserved clients; at most nproc")
		quick     = flag.Bool("quick", false, "smoke sizes: tiny graphs, 100 k-instruction windows, 50 requests, one pass")
		reps      = flag.Int("reps", 3, "full run: untraced repetitions per workload")
		only      = flag.String("only", "", "full run: comma-separated workloads to run (default all six)")
		doCheck   = flag.Bool("selfcheck", false, "full run: measure twice and fail unless the second set is within every bound of the first")
		out       = flag.String("out", filepath.Join(buildDir, "benchmark-results.json"), "full run: where to write the results")
		report    = flag.String("report", "", "single run: also write the whole run result as JSON here (used by the full run)")
		writeSpec = flag.Bool("write-spec", false, "regenerate BENCHMARK.json from the tables in spec.go and exit")
		spin      = flag.Bool("idle-spin", false, "internal: keep the core this process was started on out of halt, in the idle scheduling class, until killed")
	)
	flag.Parse()
	if *spin {
		return idleSpin()
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	if *writeSpec {
		spec := defaultSpec()
		err := spec.validate()
		if err == nil {
			var data []byte
			if data, err = spec.encode(); err == nil {
				err = os.WriteFile("BENCHMARK.json", data, 0o644)
			}
		}
		return exitCode(err)
	}

	sz := normalSizes()
	if *quick {
		sz = quickSizes()
	}
	tmpRoot := filepath.Join(buildDir, "tmp")
	traced, tracePath := *trace != "0", ""
	if traced && *trace != "1" {
		tracePath = *trace
	}

	if *workload != "" {
		return exitCode(single(runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, traced: traced,
			workers: *workers, sz: sz, tmpRoot: tmpRoot, log: os.Stdout,
		}, *report, tracePath))
	}

	fc := &fullConfig{
		seed: *seed, seconds: *seconds, reps: *reps, workers: *workers, quick: *quick,
		tracePath: tracePath, outPath: *out, tmpRoot: tmpRoot, log: os.Stderr,
	}
	if traced && tracePath == "" {
		fmt.Fprintln(os.Stderr, "benchmark: a full run takes -trace FILE")
		return 2
	}
	if *only != "" {
		fc.only = strings.Split(*only, ",")
		for _, name := range fc.only {
			if _, err := newWorkload(name); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
		}
	}
	return exitCode(full(fc, *doCheck))
}

// buildDir is the one directory, under the working directory, that the
// benchmark writes to; .gitignore names it.
const buildDir = ".bench_build"

func exitCode(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errChecksFailed is returned after the results were printed, when some
// output check did not hold.
func errChecksFailed(n int) error { return fmt.Errorf("%d output checks failed", n) }

// single runs one workload once and prints every metric it measured by
// name with its unit, then the result object on the last line.
func single(cfg runConfig, reportPath, tracePath string) error {
	e := newEnv(cfg)
	defer e.cleanup()
	// A terminated run still has to kill its child and remove its files.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if s, ok := <-sig; ok {
			e.cleanup()
			fmt.Fprintf(os.Stderr, "benchmark: stopped by %v\n", s)
			os.Exit(1)
		}
	}()
	res, err := e.run()
	if err != nil {
		return err
	}

	for _, m := range endToEndSpecs {
		fmt.Fprintf(cfg.log, "%-30s %14.6g %s\n", m.Name, res.EndToEnd[m.Name].Value, m.Unit)
	}
	for _, m := range perLayerSpecs {
		if v, ok := res.PerLayer[m.Name]; ok {
			fmt.Fprintf(cfg.log, "%-30s %14.6g %s\n", m.Name, v.Value, m.Unit)
		}
	}
	fmt.Fprintf(cfg.log, "digest %s  passes %d  set-ups %d  failed %d/%d\n", res.Digest, res.Passes, res.SetupReps, res.Failed, res.Attempted)
	for _, p := range res.Problems {
		fmt.Fprintf(cfg.log, "PROBLEM: %s\n", p)
	}
	if reportPath != "" {
		if err := writeJSONFile(reportPath, res); err != nil {
			return err
		}
	}
	if tracePath != "" {
		ct := new(chromeTrace)
		ct.add(0, cfg.workload, res.Spans)
		if err := writeTrace(tracePath, ct); err != nil {
			return err
		}
	}
	line, err := res.line()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errChecksFailed(max(1, res.Failed))
	}
	return nil
}

func writeTrace(path string, ct *chromeTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ct.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// full runs the whole benchmark (twice under -selfcheck), prints the
// tables and writes the results file.
func full(c *fullConfig, check bool) error {
	if err := os.MkdirAll(c.tmpRoot, 0o755); err != nil {
		return err
	}
	first, trace, err := c.measure()
	if err != nil {
		return err
	}
	first.print(os.Stdout)
	if err := writeJSONFile(c.outPath, first); err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "results written to %s\n", c.outPath)
	if trace != nil {
		if err := writeTrace(c.tracePath, trace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "spans written to %s\n", c.tracePath)
	}
	failed := first.failed()
	if check {
		c.tracePath = ""
		second, _, err := c.measure()
		if err != nil {
			return err
		}
		second.print(os.Stdout)
		bad := selfcheck(os.Stdout, first, second)
		for _, b := range bad {
			fmt.Fprintf(os.Stdout, "selfcheck FAILED: %s\n", b)
		}
		if len(bad) == 0 {
			fmt.Fprintln(os.Stdout, "selfcheck passed: every end-to-end median of the second set is within its bound of the first, digests equal, nothing failed")
		}
		failed += second.failed() + len(bad)
	}
	if failed > 0 {
		return errChecksFailed(failed)
	}
	return nil
}
