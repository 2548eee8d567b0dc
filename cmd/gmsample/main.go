// Command gmsample is the statistical-sampling CI gate: it validates
// the sampler's estimates against full-fidelity detailed runs on a
// fixed config x workload matrix and fails when accuracy or speed
// regress.
//
// Usage:
//
//	gmsample -write-reference            # regenerate ci/sample_reference.json
//	gmsample                             # run the gate against the committed reference
//	gmsample -ckpt /path/to/store        # ... reusing warm-up checkpoints across runs
//	gmsample -out SAMPLE_8.json          # ... recording the trajectory artifact
//
// The gate runs every cell twice — once detailed (full-fidelity
// windows) and once sampled — and enforces, per cell:
//
//   - the detailed run must reproduce the committed reference exactly
//     (the simulator is deterministic, so any difference means the
//     reference is stale: regenerate it with -write-reference);
//   - the sampled IPC and L1 demand MPKI estimates must land within
//     -tol (default 3%) of the detailed values;
//   - the 99% confidence interval must contain the detailed value.
//
// Across the matrix it further enforces that sampling reduced the
// detailed-instruction volume by at least -minvol (default 5x). The
// wall-clock speedup is recorded in the artifact; its floor (-minspeed,
// default 1.25x) is deliberately loose because record generation is an
// irreducible serial cost shared by both modes (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"graphmem"
)

// cell is one gate matrix point: a config variant, a workload, and the
// per-workload sampling plan validated for it. bfs keeps a 50k period
// where pr and cc use 65k — pr's loop structure aliases against 50k
// (a ~4% MPKI bias), while bfs's phase lengths alias against 65k.
type cell struct {
	Config   string              `json:"config"`
	Workload string              `json:"workload"`
	Plan     graphmem.SamplePlan `json:"plan"`
}

// refCell is one committed reference measurement: the detailed run's
// exact metrics for a cell.
type refCell struct {
	cell
	IPC          float64 `json:"ipc"`
	L1DemandMPKI float64 `json:"l1_demand_mpki"`
	Instructions int64   `json:"instructions"`
}

// reference is the committed gate reference (ci/sample_reference.json).
type reference struct {
	SchemaVersion int       `json:"schema_version"`
	Profile       string    `json:"profile"`
	Warmup        int64     `json:"warmup"`
	Measure       int64     `json:"measure"`
	Tolerance     float64   `json:"tolerance"`
	Cells         []refCell `json:"cells"`
}

// gateCell is one cell's outcome in the SAMPLE_8.json artifact.
type gateCell struct {
	Config        string  `json:"config"`
	Workload      string  `json:"workload"`
	IPCRef        float64 `json:"ipc_ref"`
	IPCEst        float64 `json:"ipc_est"`
	IPCHalfWidth  float64 `json:"ipc_half_width"`
	IPCErr        float64 `json:"ipc_err"`
	MPKIRef       float64 `json:"mpki_ref"`
	MPKIEst       float64 `json:"mpki_est"`
	MPKIHalfWidth float64 `json:"mpki_half_width"`
	MPKIErr       float64 `json:"mpki_err"`
	Samples       int     `json:"samples"`
	DetailedInstr int64   `json:"detailed_instructions"`
	FullInstr     int64   `json:"full_instructions"`
	FullMs        int64   `json:"full_ms"`
	SampledMs     int64   `json:"sampled_ms"`
	CheckpointHit bool    `json:"checkpoint_hit"`
}

const (
	gateWarmup  = 200_000
	gateMeasure = 5_000_000
)

// matrix returns the gate's cells: {pr, bfs, cc} x {Baseline, SDC+LP}
// on the bench-scale machine over kron, with the per-workload plans the
// sampled-vs-full validation settled on (see EXPERIMENTS.md).
func matrix() []cell {
	planFor := map[string]graphmem.SamplePlan{
		"pr":  {Period: 65_000, SampleLen: 5_000, Offset: 13_000, DetailWarm: 5_000},
		"cc":  {Period: 65_000, SampleLen: 5_000, Offset: 13_000, DetailWarm: 5_000},
		"bfs": {Period: 50_000, SampleLen: 5_000, Offset: 10_000, DetailWarm: 5_000},
	}
	var out []cell
	for _, kernel := range []string{"pr", "bfs", "cc"} {
		for _, config := range []string{"baseline", "sdclp"} {
			out = append(out, cell{Config: config, Workload: kernel + ".kron", Plan: planFor[kernel]})
		}
	}
	return out
}

func cellConfig(base graphmem.Config, name string) graphmem.Config {
	if name == "sdclp" {
		return base.WithSDCLP()
	}
	return base
}

func main() {
	writeRef := flag.Bool("write-reference", false, "regenerate the committed reference from full detailed runs")
	refPath := flag.String("ref", "ci/sample_reference.json", "reference file path")
	outPath := flag.String("out", "", "write the gate outcome as a SAMPLE_8.json-style artifact")
	ckptDir := flag.String("ckpt", "", "warm-up checkpoint store directory for the sampled runs")
	tol := flag.Float64("tol", 0.03, "max relative error of sampled estimates vs the detailed reference")
	minVol := flag.Float64("minvol", 5.0, "min detailed-instruction volume reduction across the matrix")
	minSpeed := flag.Float64("minspeed", 1.25, "min wall-clock speedup across the matrix (loose: see command doc)")
	flag.Parse()

	profile, err := graphmem.ProfileByName("bench")
	if err != nil {
		fatal(err)
	}
	profile.Warmup, profile.Measure = gateWarmup, gateMeasure
	wb := graphmem.NewWorkbench(profile)
	wb.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }

	if *writeRef {
		if err := writeReference(wb, *refPath, *tol); err != nil {
			fatal(err)
		}
		fmt.Printf("gmsample: wrote %s\n", *refPath)
		return
	}

	blob, err := os.ReadFile(*refPath)
	if err != nil {
		fatal(fmt.Errorf("%v (generate it with gmsample -write-reference)", err))
	}
	var ref reference
	if err := json.Unmarshal(blob, &ref); err != nil {
		fatal(err)
	}
	if ref.Warmup != gateWarmup || ref.Measure != gateMeasure {
		fatal(fmt.Errorf("reference windows %d/%d do not match the gate's %d/%d; regenerate it",
			ref.Warmup, ref.Measure, gateWarmup, gateMeasure))
	}

	var store *graphmem.CheckpointStore
	if *ckptDir != "" {
		if store, err = graphmem.NewCheckpointStore(*ckptDir); err != nil {
			fatal(err)
		}
	}

	refByKey := make(map[string]refCell, len(ref.Cells))
	for _, rc := range ref.Cells {
		refByKey[rc.Config+"|"+rc.Workload] = rc
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "gmsample: FAIL: "+format+"\n", args...)
	}

	var cells []gateCell
	var fullMs, sampledMs, fullInstr, detailedInstr int64
	for _, c := range matrix() {
		rc, ok := refByKey[c.Config+"|"+c.Workload]
		if !ok {
			fail("%s/%s: no reference cell; regenerate the reference", c.Config, c.Workload)
			continue
		}
		base := cellConfig(profile.BaseConfig(1), c.Config).WithWindows(gateWarmup, gateMeasure)
		id := workloadID(c.Workload)

		t0 := time.Now()
		full := graphmem.RunSingleCore(base, wb.Workload(id, 0))
		tFull := time.Since(t0).Milliseconds()

		sampledCfg := base.WithSampling(c.Plan.Period, c.Plan.SampleLen, c.Plan.Offset).
			WithSampleWarm(c.Plan.DetailWarm)
		if store != nil {
			sampledCfg = sampledCfg.WithCheckpointStore(store, profile.Name)
		}
		t0 = time.Now()
		sampled := graphmem.RunSingleCore(sampledCfg, wb.Workload(id, 0))
		tSampled := time.Since(t0).Milliseconds()

		e := sampled.Sampling
		if e == nil {
			fail("%s/%s: sampled run produced no estimate", c.Config, c.Workload)
			continue
		}
		g := gateCell{
			Config: c.Config, Workload: c.Workload,
			IPCRef: full.Stats.IPC(), IPCEst: e.IPC.Mean, IPCHalfWidth: e.IPC.HalfWidth,
			IPCErr:  graphmem.RelErr(e.IPC.Mean, full.Stats.IPC()),
			MPKIRef: full.Stats.L1DemandMPKI(), MPKIEst: e.L1DemandMPKI.Mean,
			MPKIHalfWidth: e.L1DemandMPKI.HalfWidth,
			MPKIErr:       graphmem.RelErr(e.L1DemandMPKI.Mean, full.Stats.L1DemandMPKI()),
			Samples:       e.Samples,
			DetailedInstr: e.DetailedInstructions, FullInstr: full.Stats.Instructions,
			FullMs: tFull, SampledMs: tSampled, CheckpointHit: e.CheckpointHit,
		}
		cells = append(cells, g)
		fullMs += tFull
		sampledMs += tSampled
		fullInstr += full.Stats.Instructions
		detailedInstr += e.DetailedInstructions

		// Staleness: the detailed run must reproduce the committed
		// reference bit for bit (the simulator is deterministic).
		if g.IPCRef != rc.IPC || g.MPKIRef != rc.L1DemandMPKI || full.Stats.Instructions != rc.Instructions {
			fail("%s/%s: detailed run (IPC %.6f, MPKI %.6f) != committed reference (IPC %.6f, MPKI %.6f); reference is stale, regenerate with -write-reference",
				c.Config, c.Workload, g.IPCRef, g.MPKIRef, rc.IPC, rc.L1DemandMPKI)
		}
		// Accuracy: relative error and CI containment on both metrics.
		if g.IPCErr > *tol {
			fail("%s/%s: IPC estimate %.4f vs %.4f — rel error %.2f%% > %.1f%%",
				c.Config, c.Workload, g.IPCEst, g.IPCRef, 100*g.IPCErr, 100**tol)
		}
		if g.MPKIErr > *tol {
			fail("%s/%s: L1 MPKI estimate %.3f vs %.3f — rel error %.2f%% > %.1f%%",
				c.Config, c.Workload, g.MPKIEst, g.MPKIRef, 100*g.MPKIErr, 100**tol)
		}
		if !e.IPC.Contains(g.IPCRef) {
			fail("%s/%s: 99%% CI %.4f±%.4f excludes the detailed IPC %.4f",
				c.Config, c.Workload, g.IPCEst, g.IPCHalfWidth, g.IPCRef)
		}
		if !e.L1DemandMPKI.Contains(g.MPKIRef) {
			fail("%s/%s: 99%% CI %.3f±%.3f excludes the detailed L1 MPKI %.3f",
				c.Config, c.Workload, g.MPKIEst, g.MPKIHalfWidth, g.MPKIRef)
		}
		fmt.Printf("%-8s %-8s IPC %.4f est %.4f (%.2f%%)  MPKI %.2f est %.2f (%.2f%%)  %d samples  full %dms sampled %dms\n",
			c.Config, c.Workload, g.IPCRef, g.IPCEst, 100*g.IPCErr,
			g.MPKIRef, g.MPKIEst, 100*g.MPKIErr, g.Samples, tFull, tSampled)
	}

	volRed := float64(fullInstr) / float64(max64(detailedInstr, 1))
	speedup := float64(fullMs) / float64(max64(sampledMs, 1))
	fmt.Printf("matrix: detailed-volume reduction %.1fx  wall-clock %dms -> %dms (%.2fx)\n",
		volRed, fullMs, sampledMs, speedup)
	if store != nil {
		fmt.Printf("checkpoint store: %d hits, %d misses\n", store.Hits(), store.Misses())
	}
	if volRed < *minVol {
		fail("detailed-instruction volume reduction %.2fx below the %.1fx floor", volRed, *minVol)
	}
	if speedup < *minSpeed {
		fail("wall-clock speedup %.2fx below the %.2fx floor", speedup, *minSpeed)
	}

	if *outPath != "" {
		artifact := map[string]any{
			"bench":   "sampled-sim",
			"profile": "bench",
			"warmup":  gateWarmup,
			"measure": gateMeasure,
			"tol":     *tol,
			"cells":   cells,
			"full_ms": fullMs, "sampled_ms": sampledMs,
			"speedup":          speedup,
			"volume_reduction": volRed,
			"state_version":    graphmem.SampleStateVersion,
			"failures":         failures,
			"host": map[string]any{
				"go_version": runtime.Version(),
				"goos":       runtime.GOOS,
				"goarch":     runtime.GOARCH,
				"num_cpu":    runtime.NumCPU(),
			},
		}
		if store != nil {
			artifact["ckpt"] = map[string]int64{"hits": store.Hits(), "misses": store.Misses()}
		}
		blob, err := json.Marshal(artifact)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "gmsample: %d gate failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("gmsample: gate clean")
}

// writeReference runs the matrix's detailed cells and commits their
// exact metrics plus the per-cell plans as the gate reference.
func writeReference(wb *graphmem.Workbench, path string, tol float64) error {
	profile := wb.Profile
	ref := reference{
		SchemaVersion: 1,
		Profile:       profile.Name,
		Warmup:        gateWarmup,
		Measure:       gateMeasure,
		Tolerance:     tol,
	}
	for _, c := range matrix() {
		base := cellConfig(profile.BaseConfig(1), c.Config).WithWindows(gateWarmup, gateMeasure)
		full := graphmem.RunSingleCore(base, wb.Workload(workloadID(c.Workload), 0))
		ref.Cells = append(ref.Cells, refCell{
			cell:         c,
			IPC:          full.Stats.IPC(),
			L1DemandMPKI: full.Stats.L1DemandMPKI(),
			Instructions: full.Stats.Instructions,
		})
	}
	blob, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func workloadID(s string) graphmem.WorkloadID {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return graphmem.WorkloadID{Kernel: s[:i], Graph: s[i+1:]}
		}
	}
	fatal(fmt.Errorf("bad workload %q", s))
	return graphmem.WorkloadID{}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmsample:", err)
	os.Exit(1)
}
