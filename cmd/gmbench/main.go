// Command gmbench is the continuous-benchmark gate: it parses `go test
// -bench` output, reduces each benchmark's -count repetitions to a
// robust summary (median ns/op, max allocs/op), and compares the
// summary against a committed baseline file, benchstat-style.
//
// Usage:
//
//	go test -p 1 -run '^$' -bench . -benchmem -count=6 \
//	    ./internal/cache ./internal/dram ./internal/sim \
//	    ./internal/prefetch ./internal/graph | tee bench.out
//	gmbench -in bench.out -baseline ci/bench_baseline.txt
//	gmbench -in bench.out -baseline ci/bench_baseline.txt -update
//
// The gate fails (exit 1) when any baseline benchmark regresses by more
// than -threshold in median time/op (subject to -slack, an absolute
// floor that keeps sub-nanosecond benchmarks from tripping on jitter),
// when allocs/op grows at all (allocations are deterministic, so any
// increase is a real regression), or when a baseline benchmark is
// missing from the input (the gate must not silently shrink). New
// benchmarks absent from the baseline are reported but do not fail;
// commit them with -update, which rewrites the rows and keeps the
// file's leading comment block as it is.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"graphmem/internal/store"
)

// result is one benchmark's reduced summary.
type result struct {
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

// parseBench reads `go test -bench` output: every "Benchmark..." line
// contributes one sample to its benchmark (the -cpu / GOMAXPROCS suffix
// is stripped so the name is stable across runner shapes).
func parseBench(rd io.Reader) (map[string]*result, []string, error) {
	results := make(map[string]*result)
	var order []string
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
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
			r = &result{}
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

// baseline is the committed baseline file: the comment and blank lines
// that lead it (the regeneration recipe and notes on hand-pinned rows,
// which -update keeps verbatim) and its rows in file order.
type baseline struct {
	header  []string
	entries map[string]baselineEntry
	order   []string
}

func readBaseline(path string) (baseline, error) {
	b := baseline{entries: make(map[string]baselineEntry)}
	f, err := os.Open(path)
	if err != nil {
		return b, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if len(b.order) == 0 {
				b.header = append(b.header, sc.Text())
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return b, fmt.Errorf("%s: malformed line %q (want: name median_ns_per_op max_allocs_per_op)", path, line)
		}
		ns, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return b, fmt.Errorf("%s: bad ns/op in %q: %v", path, line, err)
		}
		allocs, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return b, fmt.Errorf("%s: bad allocs/op in %q: %v", path, line, err)
		}
		b.entries[f[0]] = baselineEntry{ns: ns, allocs: allocs}
		b.order = append(b.order, f[0])
	}
	return b, sc.Err()
}

// updateBaseline rewrites path's rows from this run, keeping the
// existing file's leading comment block byte for byte (a new file gets
// rows only).
func updateBaseline(path string, results map[string]*result, order []string) error {
	old, err := readBaseline(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	var b strings.Builder
	for _, line := range old.header {
		b.WriteString(line + "\n")
	}
	for _, name := range order {
		r := results[name]
		fmt.Fprintf(&b, "%s %.4g %d\n", name, r.medianNs(), r.maxAllocs())
	}
	return store.WriteFileAtomic(filepath.Dir(path), path, func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
}

// gate compares this run against the baseline, writes one report line
// per benchmark to w — the baseline's rows first, in its order, then
// rows the baseline lacks — and reports whether the gate failed.
func gate(w io.Writer, results map[string]*result, order []string, base baseline, threshold, slack float64) (failed bool) {
	for _, name := range base.order {
		old := base.entries[name]
		r, ok := results[name]
		if !ok {
			failed = true
			fmt.Fprintf(w, "%-28s MISSING (baseline %.4g ns/op)\n", name, old.ns)
			continue
		}
		cur, allocs := r.medianNs(), r.maxAllocs()
		delta := 0.0
		if old.ns > 0 {
			delta = (cur - old.ns) / old.ns
		}
		status := "OK"
		if allocs > old.allocs || (delta > threshold && cur-old.ns > slack) {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-28s %10.4g ns/op  (baseline %.4g, %+.1f%%)  %d allocs/op  %s\n",
			name, cur, old.ns, delta*100, allocs, status)
	}
	for _, name := range order {
		if _, ok := base.entries[name]; !ok {
			fmt.Fprintf(w, "%-28s %10.4g ns/op  NEW (not in baseline; add with -update)\n", name, results[name].medianNs())
		}
	}
	return failed
}

func main() {
	in := flag.String("in", "", "benchmark output file to parse (default: stdin)")
	baselinePath := flag.String("baseline", "ci/bench_baseline.txt", "committed baseline file")
	threshold := flag.Float64("threshold", 0.10, "relative time/op regression that fails the gate")
	slack := flag.Float64("slack", 0.5, "absolute ns/op a benchmark must regress by before the threshold applies (jitter floor for sub-ns benchmarks)")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
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
		if err := updateBaseline(*baselinePath, results, order); err != nil {
			fmt.Fprintln(os.Stderr, "gmbench:", err)
			os.Exit(2)
		}
		fmt.Printf("gmbench: wrote %d benchmarks to %s\n", len(order), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		os.Exit(2)
	}
	if gate(os.Stdout, results, order, base, *threshold, *slack) {
		fmt.Fprintln(os.Stderr, "gmbench: benchmark gate FAILED")
		os.Exit(1)
	}
	fmt.Println("gmbench: benchmark gate passed")
}
