package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// benchSpec is BENCHMARK.json: exactly these keys, nothing else. The
// tables below are its source; `-write-spec` regenerates the file and
// TestSpecMatchesFile fails when the two drift apart.
type benchSpec struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadSpec   `json:"workloads"`
	EndToEnd   []endToEndMetric `json:"end_to_end"`
	PerLayer   []layerMetric    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// defaultRunSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json carries the same number as run_seconds.
const defaultRunSeconds = 12

// The six workloads, in the order a full run executes them.
const (
	wColdPoint = "cold_point"
	wDetailSim = "detail_sim"
	wSweepCold = "sweep_cold"
	wSweepWarm = "sweep_warm"
	wMulticore = "multicore_weave"
	wServeWarm = "serve_warm"
)

var workloadSpecs = []workloadSpec{
	{wColdPoint, "Three points, each through Workbench.RunSingle on a fresh workbench, then EncodeResult: what a gmsim user pays; graph generation is about 60 % of it, so a graph cache or cheaper R-MAT shows here."},
	{wDetailSim, "Eight kron points through sim directly, graph and kernels prepared in set-up: only sim/cpu/cache/dram work; the no-change control for graph work, the target for hot-path and one-walk changes."},
	{wSweepCold, "tab1,fig3,fig10 sweep on an empty result store at -j min(nproc,4): scheduler, single-flight graph builds, memo and the store write path around live simulations."},
	{wSweepWarm, "The same sweep served from the populated store, fresh workbench each time: store read, framing, DecodeResult and rendering with no simulation; a codec that speeds writes and slows reads shows."},
	{wMulticore, "One 8-core SDC+LP machine under bound-weave: per-core overlays and replay against shared LLC/DRAM/SDCDir, so a single-core gain that costs the shared-domain path shows."},
	{wServeWarm, "The gmserved binary over a populated store, closed loop of j/2 clients on cores of their own doing run/events/result with every 100th op a sweep: HTTP, job bookkeeping and memo, no simulation."},
}

// End-to-end metrics. Every workload reports every one of them.
var endToEndSpecs = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Per-layer metrics, "<module>.<metric>". A traced run reports all of
// them; one a workload does not exercise reads 0 there.
var perLayerSpecs = []layerMetric{
	{"graph.build_s", "s", "lower"},
	{"graph.build_ns_per_edge", "ns", "lower"},
	{"graph.edges", "count", "higher"},
	{"graph.transpose_s", "s", "lower"},
	{"graph.binary_read_s", "s", "lower"},
	{"kernels.prepare_s", "s", "lower"},
	{"kernels.trace_ns_per_record", "ns", "lower"},
	{"kernels.records", "count", "higher"},
	{"kernels.reruns", "count", "lower"},
	{"kernels.gather_start_minstr", "Minstr", "lower"},
	{"kernels.gather_share", "ratio", "higher"},
	{"cpu.access_ns_per_record", "ns", "lower"},
	{"cpu.avg_load_latency_cycles", "cycles", "lower"},
	{"cache.lookup_fill_ns", "ns", "lower"},
	{"cache.l1d_mpki", "1/kinstr", "lower"},
	{"cache.l2_mpki", "1/kinstr", "lower"},
	{"cache.llc_mpki", "1/kinstr", "lower"},
	{"cache.sdc_hit_ratio", "ratio", "higher"},
	{"tlb.dtlb_mpki", "1/kinstr", "lower"},
	{"core.lp_averse_share", "ratio", "higher"},
	{"core.lp_table_miss_ratio", "ratio", "lower"},
	{"coherence.sdcdir_lookups", "count", "lower"},
	{"prefetch.fills_pki", "1/kinstr", "lower"},
	{"dram.access_ns", "ns", "lower"},
	{"dram.reads", "count", "lower"},
	{"dram.writes", "count", "lower"},
	{"dram.row_hit_ratio", "ratio", "higher"},
	{"sim.run_s", "s", "lower"},
	{"sim.newsystem_s", "s", "lower"},
	{"sim.mips", "Minstr/s", "higher"},
	{"sim.ns_per_instr", "ns", "lower"},
	{"sim.hierarchy_ns_per_record", "ns", "lower"},
	{"sim.host_ns_per_l1d_access", "ns", "lower"},
	{"sim.host_ns_per_dram_read", "ns", "lower"},
	{"sim.weave_speedup", "ratio", "higher"},
	{"sim.encode_us", "us", "lower"},
	{"sim.decode_us", "us", "lower"},
	{"sim.result_bytes", "B", "lower"},
	{"sim.cycles", "count", "lower"},
	{"sim.instructions", "count", "higher"},
	{"sim.ipc", "1/cycle", "higher"},
	{"sim.sdclp_speedup_pct", "%", "higher"},
	{"harness.sweep_s", "s", "lower"},
	{"harness.points", "count", "higher"},
	{"harness.live_runs", "count", "lower"},
	{"harness.memo_hits", "count", "higher"},
	{"harness.cpu_util", "ratio", "higher"},
	{"harness.unaccounted_share", "ratio", "lower"},
	{"harness.render_us", "us", "lower"},
	{"harness.memo_hit_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.entries", "count", "higher"},
	{"store.bytes", "B", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"gmserved.start_s", "s", "lower"},
	{"gmserved.req_per_s", "op/s", "higher"},
	{"gmserved.lat_p50_ms", "ms", "lower"},
	{"gmserved.lat_p99_ms", "ms", "lower"},
	{"gmserved.post_ms_p50", "ms", "lower"},
	{"gmserved.events_ms_p50", "ms", "lower"},
	{"gmserved.result_ms_p50", "ms", "lower"},
	{"gmserved.first_touch_ms_p50", "ms", "lower"},
	{"gmserved.sweep_ms_p50", "ms", "lower"},
	{"gmserved.rss_mb_end", "MB", "lower"},
	{"gmserved.errors", "count", "lower"},
	{"host.wall_median_s", "s", "lower"},
	{"host.alloc_mb", "MB", "lower"},
	{"trace.accounted_share", "ratio", "higher"},
}

func defaultSpec() *benchSpec {
	return &benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
}

func (s *benchSpec) encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }

// validate applies the limits the benchmark contract puts on the file.
func (s *benchSpec) validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q is too long, absolute or leaves the repo", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q is not a relative path inside the repo", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) error {
		if !validName(n) {
			return fmt.Errorf("%s name %q: want a letter or digit, then up to 63 letters, digits, '_', '.', '-'", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name("metric", n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("metric %s: unit %q", n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("metric %s: better %q, want lower or higher", n, better)
		}
		return nil
	}
	for _, w := range s.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %g outside 0..0.25", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s with unit s and better lower")
	}
	for _, m := range s.PerLayer {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}
