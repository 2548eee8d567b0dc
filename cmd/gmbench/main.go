// Command gmbench is the continuous-benchmark gate: it parses `go test
// -bench` output, reduces each benchmark's -count repetitions to a
// robust summary (median ns/op, max allocs/op), and compares the
// summary against a committed baseline file, benchstat-style.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count=6 \
//	    ./internal/cache ./internal/dram ./internal/sim \
//	    ./internal/prefetch ./internal/graph | tee bench.out
//	gmbench -in bench.out -baseline ci/bench_baseline.txt -json BENCH_5.json
//	gmbench -in bench.out -baseline ci/bench_baseline.txt -update
//
// The gate fails (exit 1) when any baseline benchmark regresses by more
// than -threshold in median time/op (subject to -slack, an absolute
// floor that keeps sub-nanosecond benchmarks from tripping on jitter),
// when allocs/op grows at all (allocations are deterministic, so any
// increase is a real regression), or when a baseline benchmark is
// missing from the input (the gate must not silently shrink). New
// benchmarks absent from the baseline are reported but do not fail;
// commit them with -update.
//
// -json writes a BENCH_5.json artifact: j1_ms is the summed baseline
// medians, jn_ms the summed current medians, and speedup their ratio,
// plus a per-benchmark breakdown.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's reduced summary.
type result struct {
	name   string
	pkg    string
	ns     []float64 // ns/op samples across -count repetitions
	allocs []int64   // allocs/op samples
}

func (r *result) medianNs() float64 {
	s := append([]float64(nil), r.ns...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (r *result) maxAllocs() int64 {
	var m int64
	for _, a := range r.allocs {
		if a > m {
			m = a
		}
	}
	return m
}

// parseBench reads `go test -bench` output: "pkg:" header lines set the
// current package, and every "Benchmark..." line contributes one sample
// to its benchmark (the -cpu / GOMAXPROCS suffix is stripped so the
// name is stable across runner shapes).
func parseBench(rd io.Reader) (map[string]*result, []string, error) {
	results := make(map[string]*result)
	var order []string
	pkg := ""
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		name = strings.TrimPrefix(name, "Benchmark")
		r := results[name]
		if r == nil {
			r = &result{name: name, pkg: pkg}
			results[name] = r
			order = append(order, name)
		}
		// Value/unit pairs follow the iteration count.
		for i := 2; i+1 < len(f); i += 2 {
			switch f[i+1] {
			case "ns/op":
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
				}
				r.ns = append(r.ns, v)
			case "allocs/op":
				v, err := strconv.ParseInt(f[i], 10, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("bad allocs/op in %q: %v", line, err)
				}
				r.allocs = append(r.allocs, v)
			}
		}
	}
	return results, order, sc.Err()
}

// baselineEntry is one committed reference point.
type baselineEntry struct {
	ns     float64
	allocs int64
}

func readBaseline(path string) (map[string]baselineEntry, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	base := make(map[string]baselineEntry)
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, nil, fmt.Errorf("%s: malformed line %q (want: name median_ns_per_op max_allocs_per_op)", path, line)
		}
		ns, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: bad ns/op in %q: %v", path, line, err)
		}
		allocs, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: bad allocs/op in %q: %v", path, line, err)
		}
		base[f[0]] = baselineEntry{ns: ns, allocs: allocs}
		order = append(order, f[0])
	}
	return base, order, sc.Err()
}

func writeBaseline(path string, results map[string]*result, order []string) error {
	var b strings.Builder
	b.WriteString("# Continuous-benchmark baseline: median ns/op and max allocs/op of the\n")
	b.WriteString("# pinned microbenchmark subset (internal/cpu, internal/cache,\n")
	b.WriteString("# internal/tlb, internal/core, internal/dram, internal/sim,\n")
	b.WriteString("# internal/prefetch, internal/graph) at -count=6.\n")
	b.WriteString("# Regenerate after intentional perf or hardware changes with:\n")
	b.WriteString("#   go test -run '^$' -bench . -benchmem -count=6 \\\n")
	b.WriteString("#       ./internal/cpu ./internal/cache ./internal/tlb ./internal/core \\\n")
	b.WriteString("#       ./internal/dram ./internal/sim \\\n")
	b.WriteString("#       ./internal/prefetch ./internal/graph > bench.out\n")
	b.WriteString("#   go run ./cmd/gmbench -in bench.out -baseline ci/bench_baseline.txt -update\n")
	for _, name := range order {
		r := results[name]
		fmt.Fprintf(&b, "%s %.4g %d\n", name, r.medianNs(), r.maxAllocs())
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// benchJSON is the BENCH_5.json schema (the field names date from the
// retired -j 1 vs -j nproc artifact it once mirrored).
type benchJSON struct {
	Bench      string      `json:"bench"`
	Profile    string      `json:"profile"`
	Subset     string      `json:"subset"`
	Cores      int         `json:"cores"`
	J1Ms       float64     `json:"j1_ms"`
	JnMs       float64     `json:"jn_ms"`
	Speedup    float64     `json:"speedup"`
	Host       hostInfo    `json:"host"`
	Benchmarks []benchLine `json:"benchmarks"`
}

// hostInfo records where the numbers were produced: benchmark artifacts
// are only comparable across runs on like hardware, so the machine
// shape travels with the data.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// captureHost snapshots the host shape. The CPU model comes from
// /proc/cpuinfo and is best-effort: absent (non-Linux, restricted
// container) it is simply omitted from the artifact.
func captureHost() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					h.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	return h
}

type benchLine struct {
	Name             string  `json:"name"`
	Pkg              string  `json:"pkg,omitempty"`
	NsPerOp          float64 `json:"ns_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	BaselineNsPerOp  float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocs   int64   `json:"baseline_allocs_per_op,omitempty"`
	DeltaNs          float64 `json:"delta,omitempty"` // (new-old)/old
	Status           string  `json:"status"`          // ok|regression|new|missing
	RegressionReason string  `json:"reason,omitempty"`
}

func main() {
	in := flag.String("in", "", "benchmark output file to parse (default: stdin)")
	baselinePath := flag.String("baseline", "ci/bench_baseline.txt", "committed baseline file")
	threshold := flag.Float64("threshold", 0.10, "relative time/op regression that fails the gate")
	slack := flag.Float64("slack", 0.5, "absolute ns/op a benchmark must regress by before the threshold applies (jitter floor for sub-ns benchmarks)")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	jsonPath := flag.String("json", "", "also write a BENCH_5-style JSON artifact")
	flag.Parse()

	rd := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmbench:", err)
			os.Exit(2)
		}
		defer f.Close()
		rd = f
	}
	results, order, err := parseBench(rd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "gmbench: no benchmark lines found in input")
		os.Exit(2)
	}

	if *update {
		if err := writeBaseline(*baselinePath, results, order); err != nil {
			fmt.Fprintln(os.Stderr, "gmbench:", err)
			os.Exit(2)
		}
		fmt.Printf("gmbench: wrote %d benchmarks to %s\n", len(order), *baselinePath)
		return
	}

	base, baseOrder, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		os.Exit(2)
	}

	var lines []benchLine
	var sumBase, sumCur float64
	failed := false

	// Baseline benchmarks first, in baseline order: these are the gate.
	for _, name := range baseOrder {
		old := base[name]
		r, ok := results[name]
		if !ok {
			failed = true
			lines = append(lines, benchLine{
				Name: name, BaselineNsPerOp: old.ns, BaselineAllocs: old.allocs,
				Status: "missing", RegressionReason: "benchmark in baseline but not in input",
			})
			fmt.Printf("%-28s MISSING (baseline %.4g ns/op)\n", name, old.ns)
			continue
		}
		cur, allocs := r.medianNs(), r.maxAllocs()
		sumBase += old.ns
		sumCur += cur
		delta := 0.0
		if old.ns > 0 {
			delta = (cur - old.ns) / old.ns
		}
		l := benchLine{
			Name: name, Pkg: r.pkg, NsPerOp: cur, AllocsPerOp: allocs,
			BaselineNsPerOp: old.ns, BaselineAllocs: old.allocs, DeltaNs: delta, Status: "ok",
		}
		switch {
		case allocs > old.allocs:
			l.Status = "regression"
			l.RegressionReason = fmt.Sprintf("allocs/op %d > baseline %d", allocs, old.allocs)
		case delta > *threshold && cur-old.ns > *slack:
			l.Status = "regression"
			l.RegressionReason = fmt.Sprintf("time/op +%.1f%% > %.0f%% threshold", delta*100, *threshold*100)
		}
		if l.Status == "regression" {
			failed = true
		}
		fmt.Printf("%-28s %10.4g ns/op  (baseline %.4g, %+.1f%%)  %d allocs/op  %s\n",
			name, cur, old.ns, delta*100, allocs, strings.ToUpper(l.Status))
		lines = append(lines, l)
	}

	// Benchmarks not yet in the baseline: informational only.
	for _, name := range order {
		if _, ok := base[name]; ok {
			continue
		}
		r := results[name]
		lines = append(lines, benchLine{
			Name: name, Pkg: r.pkg, NsPerOp: r.medianNs(), AllocsPerOp: r.maxAllocs(), Status: "new",
		})
		fmt.Printf("%-28s %10.4g ns/op  NEW (not in baseline; add with -update)\n", name, r.medianNs())
	}

	if *jsonPath != "" {
		speedup := 0.0
		if sumCur > 0 {
			speedup = sumBase / sumCur
		}
		out := benchJSON{
			Bench:   "micro-gate",
			Profile: "bench",
			Subset:  "cache,dram,sim",
			Cores:   runtime.NumCPU(),
			J1Ms:    sumBase / 1e6,
			JnMs:    sumCur / 1e6,
			Speedup: speedup,
			Host:    captureHost(),
		}
		out.Benchmarks = lines
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmbench:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gmbench:", err)
			os.Exit(2)
		}
	}

	if failed {
		fmt.Fprintln(os.Stderr, "gmbench: benchmark gate FAILED")
		os.Exit(1)
	}
	fmt.Println("gmbench: benchmark gate passed")
}
