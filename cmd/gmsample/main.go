// Command gmsample is the statistical-sampling CI gate: it validates
// the sampler's estimates against full-fidelity detailed runs on a
// fixed config x workload matrix and fails when accuracy or speed
// regress.
//
// Usage:
//
//	gmsample -write-reference            # regenerate ci/sample_reference.json
//	gmsample                             # run the gate against the committed reference
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
// wall-clock speedup is printed on the matrix line; its floor (-minspeed,
// default 1.25x) is deliberately loose because record generation is an
// irreducible serial cost shared by both modes (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"graphmem/internal/harness"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
	"graphmem/internal/stats"
	"graphmem/internal/store"
)

// cell is one gate matrix point: a config variant, a workload, and the
// per-workload sampling plan validated for it. bfs keeps a 50k period
// where pr and cc use 65k — pr's loop structure aliases against 50k
// (a ~4% MPKI bias), while bfs's phase lengths alias against 65k.
type cell struct {
	Config   string      `json:"config"`
	Workload string      `json:"workload"`
	Plan     sample.Plan `json:"plan"`

	id  harness.WorkloadID // what Workload names
	cfg sim.Config         // Config's machine at the gate windows
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

const (
	gateWarmup  = 200_000
	gateMeasure = 5_000_000
)

// matrix returns the gate's cells: {pr, bfs, cc} x {Baseline, SDC+LP}
// on the bench-scale machine base over kron, with the per-workload plans
// the sampled-vs-full validation settled on (see EXPERIMENTS.md).
func matrix(base sim.Config) []cell {
	planFor := map[string]sample.Plan{
		"pr":  {Period: 65_000, SampleLen: 5_000, Offset: 13_000, DetailWarm: 5_000},
		"cc":  {Period: 65_000, SampleLen: 5_000, Offset: 13_000, DetailWarm: 5_000},
		"bfs": {Period: 50_000, SampleLen: 5_000, Offset: 10_000, DetailWarm: 5_000},
	}
	var out []cell
	for _, kernel := range []string{"pr", "bfs", "cc"} {
		id := harness.WorkloadID{Kernel: kernel, Graph: "kron"}
		for _, config := range []string{"baseline", "sdclp"} {
			cfg, err := harness.ConfigByName(base, config)
			if err != nil {
				fatal(err)
			}
			out = append(out, cell{Config: config, Workload: id.String(), Plan: planFor[kernel],
				id: id, cfg: cfg.WithWindows(gateWarmup, gateMeasure)})
		}
	}
	return out
}

func main() {
	writeRef := flag.Bool("write-reference", false, "regenerate the committed reference from full detailed runs")
	refPath := flag.String("ref", "ci/sample_reference.json", "reference file path")
	tol := flag.Float64("tol", 0.03, "max relative error of sampled estimates vs the detailed reference")
	minVol := flag.Float64("minvol", 5.0, "min detailed-instruction volume reduction across the matrix")
	minSpeed := flag.Float64("minspeed", 1.25, "min wall-clock speedup across the matrix (loose: see command doc)")
	flag.Parse()

	profile := harness.Bench()
	profile.Warmup, profile.Measure = gateWarmup, gateMeasure
	wb := harness.NewWorkbench(profile)
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

	refByKey := make(map[string]refCell, len(ref.Cells))
	for _, rc := range ref.Cells {
		refByKey[rc.Config+"|"+rc.Workload] = rc
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(os.Stderr, "gmsample: FAIL: "+format+"\n", args...)
	}

	var fullMs, sampledMs, fullInstr, detailedInstr int64
	for _, c := range matrix(profile.BaseConfig(1)) {
		rc, ok := refByKey[c.Config+"|"+c.Workload]
		if !ok {
			fail("%s/%s: no reference cell; regenerate the reference", c.Config, c.Workload)
			continue
		}
		t0 := time.Now()
		full := sim.RunSingleCore(c.cfg, wb.Workload(c.id, 0))
		tFull := time.Since(t0).Milliseconds()

		sampledCfg := c.cfg.WithSampling(c.Plan.Period, c.Plan.SampleLen, c.Plan.Offset).
			WithSampleWarm(c.Plan.DetailWarm)
		t0 = time.Now()
		sampled := sim.RunSingleCore(sampledCfg, wb.Workload(c.id, 0))
		tSampled := time.Since(t0).Milliseconds()

		e := sampled.Sampling
		if e == nil {
			fail("%s/%s: sampled run produced no estimate", c.Config, c.Workload)
			continue
		}
		ipcRef, mpkiRef := full.Stats.IPC(), full.Stats.L1DemandMPKI()
		ipcErr := stats.RelErr(e.IPC.Mean, ipcRef)
		mpkiErr := stats.RelErr(e.L1DemandMPKI.Mean, mpkiRef)
		fullMs += tFull
		sampledMs += tSampled
		fullInstr += full.Stats.Instructions
		detailedInstr += e.DetailedInstructions

		// Staleness: the detailed run must reproduce the committed
		// reference bit for bit (the simulator is deterministic).
		if ipcRef != rc.IPC || mpkiRef != rc.L1DemandMPKI || full.Stats.Instructions != rc.Instructions {
			fail("%s/%s: detailed run (IPC %.6f, MPKI %.6f) != committed reference (IPC %.6f, MPKI %.6f); reference is stale, regenerate with -write-reference",
				c.Config, c.Workload, ipcRef, mpkiRef, rc.IPC, rc.L1DemandMPKI)
		}
		// Accuracy: relative error and CI containment on both metrics.
		if ipcErr > *tol {
			fail("%s/%s: IPC estimate %.4f vs %.4f — rel error %.2f%% > %.1f%%",
				c.Config, c.Workload, e.IPC.Mean, ipcRef, 100*ipcErr, 100**tol)
		}
		if mpkiErr > *tol {
			fail("%s/%s: L1 MPKI estimate %.3f vs %.3f — rel error %.2f%% > %.1f%%",
				c.Config, c.Workload, e.L1DemandMPKI.Mean, mpkiRef, 100*mpkiErr, 100**tol)
		}
		if !e.IPC.Contains(ipcRef) {
			fail("%s/%s: 99%% CI %.4f±%.4f excludes the detailed IPC %.4f",
				c.Config, c.Workload, e.IPC.Mean, e.IPC.HalfWidth, ipcRef)
		}
		if !e.L1DemandMPKI.Contains(mpkiRef) {
			fail("%s/%s: 99%% CI %.3f±%.3f excludes the detailed L1 MPKI %.3f",
				c.Config, c.Workload, e.L1DemandMPKI.Mean, e.L1DemandMPKI.HalfWidth, mpkiRef)
		}
		fmt.Printf("%-8s %-8s IPC %.4f est %.4f (%.2f%%)  MPKI %.2f est %.2f (%.2f%%)  %d samples  full %dms sampled %dms\n",
			c.Config, c.Workload, ipcRef, e.IPC.Mean, 100*ipcErr,
			mpkiRef, e.L1DemandMPKI.Mean, 100*mpkiErr, e.Samples, tFull, tSampled)
	}

	volRed := float64(fullInstr) / float64(max(detailedInstr, 1))
	speedup := float64(fullMs) / float64(max(sampledMs, 1))
	fmt.Printf("matrix: detailed-volume reduction %.1fx  wall-clock %dms -> %dms (%.2fx)\n",
		volRed, fullMs, sampledMs, speedup)
	if volRed < *minVol {
		fail("detailed-instruction volume reduction %.2fx below the %.1fx floor", volRed, *minVol)
	}
	if speedup < *minSpeed {
		fail("wall-clock speedup %.2fx below the %.2fx floor", speedup, *minSpeed)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "gmsample: %d gate failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("gmsample: gate clean")
}

// writeReference runs the matrix's detailed cells and commits their
// exact metrics plus the per-cell plans as the gate reference.
func writeReference(wb *harness.Workbench, path string, tol float64) error {
	profile := wb.Profile
	ref := reference{
		SchemaVersion: 1,
		Profile:       profile.Name,
		Warmup:        gateWarmup,
		Measure:       gateMeasure,
		Tolerance:     tol,
	}
	for _, c := range matrix(profile.BaseConfig(1)) {
		full := sim.RunSingleCore(c.cfg, wb.Workload(c.id, 0))
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
	return store.WriteFileAtomic(filepath.Dir(path), path, func(w io.Writer) error {
		_, err := w.Write(append(blob, '\n'))
		return err
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmsample:", err)
	os.Exit(1)
}
