package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// fullConfig is a whole-benchmark invocation: every workload (or -only
// some), -reps untraced repetitions each, and with -trace one traced
// repetition more. Every repetition is a child process of this binary
// running one workload once, one child at a time, so that "cold", peak
// RSS and allocation mean one repetition and no memo, graph or GC state
// leaks from one to the next.
type fullConfig struct {
	seed      uint64
	seconds   float64
	reps      int
	workers   int
	quick     bool
	only      []string
	tracePath string // "" = no traced repetition
	outPath   string
	tmpRoot   string
	log       io.Writer
}

// metricSummary is one metric over a workload's repetitions.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Spread float64   `json:"iqr_share"` // (Q3-Q1)/median over the repetitions
	Values []float64 `json:"values"`
}

// workloadSummary is everything a full run learned about one workload.
type workloadSummary struct {
	Name        string                   `json:"name"`
	Why         string                   `json:"why"`
	Digest      string                   `json:"digest"`
	Attempted   int                      `json:"attempted"`
	Failed      int                      `json:"failed"`
	FailedShare float64                  `json:"failed_share"`
	Problems    []string                 `json:"problems,omitempty"`
	EndToEnd    map[string]metricSummary `json:"end_to_end"`
	PerLayer    map[string]metricValue   `json:"per_layer,omitempty"`
	// TraceOverheadPct is traced wall_s over the untraced median, minus one.
	TraceOverheadPct *float64 `json:"trace_overhead_pct,omitempty"`
}

// fullResult is the file a full run writes.
type fullResult struct {
	Host      hostInfo          `json:"host"`
	Seed      uint64            `json:"seed"`
	Reps      int               `json:"reps"`
	Seconds   float64           `json:"seconds"`
	Workers   int               `json:"workers"`
	Quick     bool              `json:"quick,omitempty"`
	Workloads []workloadSummary `json:"workloads"`
	Notes     []string          `json:"notes"`
}

var resultNotes = []string{
	"Host metrics (setup_s, wall_s, cpu_s, peak_rss_mb, sim.mips, host.alloc_mb, every *_s/_ns/_us/_ms per-layer metric) are noisy; simulated metrics (sim.cycles, sim.ipc, sim.sdclp_speedup_pct, every MPKI, ratio and count taken from Result.Stats) repeat exactly for a seed, and the digests prove it.",
	"sim.sdclp_speedup_pct is a simulated number at bench scale with a trimmed measured window. The model is compared with the paper's figures only at the small profile in EXPERIMENTS.md; no error figure is given at bench scale.",
}

// runChild runs one repetition in a child process and returns what it
// reported. A child that fails its checks still reports; one that could
// not run at all is an error.
func (c *fullConfig) runChild(workload string, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	report, err := os.CreateTemp(c.tmpRoot, "report-*.json")
	if err != nil {
		return nil, err
	}
	report.Close()
	defer os.Remove(report.Name())
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
		"-trace", trace, "-j", fmt.Sprint(c.workers), "-report", report.Name(),
	}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	dieWithParent(cmd)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	data, err := os.ReadFile(report.Name())
	if err != nil || len(data) == 0 {
		return nil, fmt.Errorf("%s: child wrote no report (%v)\n%s", workload, runErr, out)
	}
	res := new(runResult)
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: child report: %w", workload, err)
	}
	return res, nil
}

// measure runs the selected workloads and summarises them.
func (c *fullConfig) measure() (*fullResult, *chromeTrace, error) {
	out := &fullResult{
		Host: captureHost(), Seed: c.seed, Reps: c.reps, Seconds: c.seconds,
		Workers: c.workers, Quick: c.quick, Notes: resultNotes,
	}
	var trace *chromeTrace
	if c.tracePath != "" {
		trace = new(chromeTrace)
	}
	for pid, spec := range workloadSpecs {
		if len(c.only) > 0 && !slices.Contains(c.only, spec.Name) {
			continue
		}
		ws := workloadSummary{Name: spec.Name, Why: spec.Why, EndToEnd: make(map[string]metricSummary)}
		values := make(map[string][]float64)
		for rep := 0; rep < c.reps; rep++ {
			fmt.Fprintf(c.log, "%s: repetition %d/%d\n", spec.Name, rep+1, c.reps)
			res, err := c.runChild(spec.Name, false)
			if err != nil {
				return nil, nil, err
			}
			ws.absorb(res)
			for name, v := range res.EndToEnd {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, m := range endToEndSpecs {
			ws.EndToEnd[m.Name] = metricSummary{
				Unit: m.Unit, Better: m.Better, Bound: m.Bound,
				Median: median(values[m.Name]), Spread: spreadShare(values[m.Name]), Values: values[m.Name],
			}
		}
		if trace != nil {
			fmt.Fprintf(c.log, "%s: traced repetition\n", spec.Name)
			res, err := c.runChild(spec.Name, true)
			if err != nil {
				return nil, nil, err
			}
			ws.absorb(res)
			ws.PerLayer = res.PerLayer
			overhead := (res.EndToEnd["wall_s"].Value/ws.EndToEnd["wall_s"].Median - 1) * 100
			ws.TraceOverheadPct = &overhead
			trace.add(pid, spec.Name, res.Spans)
		}
		ws.FailedShare = float64(ws.Failed) / float64(max(1, ws.Attempted))
		out.Workloads = append(out.Workloads, ws)
	}
	crossCheck(out)
	return out, trace, nil
}

// absorb folds one repetition's outcome into the summary: operations
// add up, and a digest that differs from the first repetition's is a
// failure of its own (simulated results must repeat exactly).
func (ws *workloadSummary) absorb(res *runResult) {
	ws.Attempted += res.Attempted
	ws.Failed += res.Failed
	ws.Problems = append(ws.Problems, res.Problems...)
	switch {
	case ws.Digest == "":
		ws.Digest = res.Digest
	case ws.Digest != res.Digest:
		ws.Failed++
		ws.Problems = append(ws.Problems, fmt.Sprintf("digest %.12s differs from the first repetition's %.12s: simulated results moved", res.Digest, ws.Digest))
	}
	if !res.Correct && res.Failed == 0 {
		ws.Failed++
		ws.Problems = append(ws.Problems, "repetition reported incorrect outputs")
	}
}

// crossCheck compares workloads with each other: the warm sweep must
// serve the bytes the cold sweep rendered.
func crossCheck(r *fullResult) {
	var cold, warm *workloadSummary
	for i := range r.Workloads {
		switch r.Workloads[i].Name {
		case wSweepCold:
			cold = &r.Workloads[i]
		case wSweepWarm:
			warm = &r.Workloads[i]
		}
	}
	if cold != nil && warm != nil && cold.Digest != warm.Digest {
		warm.Failed++
		warm.FailedShare = float64(warm.Failed) / float64(max(1, warm.Attempted))
		warm.Problems = append(warm.Problems, "sweep_warm report bytes differ from sweep_cold's")
	}
}

func (r *fullResult) failed() int {
	n := 0
	for _, ws := range r.Workloads {
		n += ws.Failed
	}
	return n
}

// print writes every metric by name with its unit.
func (r *fullResult) print(w io.Writer) {
	fmt.Fprintf(w, "\nhost: %s, %d cpus (GOMAXPROCS %d), %s %s/%s; seed %d, %d repetitions of %g s, -j %d\n",
		r.Host.CPUModel, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GOOS, r.Host.GOARCH,
		r.Seed, r.Reps, r.Seconds, r.Workers)
	for _, ws := range r.Workloads {
		fmt.Fprintf(w, "\n== %s ==  digest %.16s  failed %d/%d (failed_share %g)\n", ws.Name, ws.Digest, ws.Failed, ws.Attempted, ws.FailedShare)
		for _, p := range ws.Problems {
			fmt.Fprintf(w, "  PROBLEM: %s\n", p)
		}
		fmt.Fprintf(w, "  %-30s %14s %-9s %8s %7s  %s\n", "end-to-end metric", "median", "unit", "spread", "bound", "repetitions")
		for _, m := range endToEndSpecs {
			s := ws.EndToEnd[m.Name]
			flag := ""
			if s.Spread > m.Bound {
				flag = "  (spread exceeds bound: a change of this size is unresolved)"
			}
			fmt.Fprintf(w, "  %-30s %14.6g %-9s %7.2f%% %6.0f%%  %s%s\n", m.Name, s.Median, s.Unit, s.Spread*100, m.Bound*100, fmtValues(s.Values), flag)
		}
		if ws.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "  trace_overhead_pct %.2f %%\n", *ws.TraceOverheadPct)
		fmt.Fprintf(w, "  %-30s %14s %s\n", "per-layer metric (traced)", "value", "unit")
		for _, m := range perLayerSpecs {
			if v := ws.PerLayer[m.Name]; v.Value != 0 {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintln(w)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func fmtValues(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// worseBy is how much worse b is than a as a share of a, given the
// metric's direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck compares two full runs of the same code: every end-to-end
// median of the second must be within its bound of the first, digests
// must be equal and nothing may have failed. It prints the two side by
// side and returns the violations.
func selfcheck(w io.Writer, a, b *fullResult) []string {
	var bad []string
	fmt.Fprintf(w, "\nselfcheck: second set against first, same code\n")
	fmt.Fprintf(w, "  %-16s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Digest != wb.Digest {
			bad = append(bad, fmt.Sprintf("%s: digests differ between the sets: simulated results do not repeat", wa.Name))
		}
		if wa.Failed+wb.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d failed operations", wa.Name, wa.Failed+wb.Failed))
		}
		names := make([]string, 0, len(wa.EndToEnd))
		for name := range wa.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma, mb := wa.EndToEnd[name], wb.EndToEnd[name]
			worse := worseBy(ma.Better, ma.Median, mb.Median)
			verdict := ""
			if worse > ma.Bound {
				verdict = "  OUT OF BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: %.4g -> %.4g %s is %.1f%% worse, bound %.0f%%", wa.Name, name, ma.Median, mb.Median, ma.Unit, worse*100, ma.Bound*100))
			}
			fmt.Fprintf(w, "  %-16s %-12s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", wa.Name, name, ma.Median, mb.Median, worse*100, ma.Bound*100, verdict)
		}
	}
	return bad
}
