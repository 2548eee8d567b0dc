// Command gmreport regenerates the paper's tables and figures.
//
// Usage:
//
//	gmreport -exp fig7 -profile bench
//	gmreport -exp all -profile small > report.txt
//	gmreport -exp fig2,fig3,tab4 -kernels pr,cc -graphs kron,urand
//	gmreport -exp fig7,fig8 -profile bench -out report/
//
// Every experiment prints the same rows/series the paper's
// corresponding artefact reports; EXPERIMENTS.md records a reference
// run. With -out, each experiment is additionally written as
// <dir>/<id>.txt and <dir>/<id>.csv plus a sweep manifest.json
// (schema, profile, machine config, experiment list, wall clock).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphmem"
	"graphmem/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(graphmem.ExperimentIDs, ",")+
		"; by name only: "+strings.Join(graphmem.OptInExperimentIDs, ",")+") or 'all'")
	kernelsFlag := flag.String("kernels", "", "restrict to these kernels (comma separated)")
	graphsFlag := flag.String("graphs", "", "restrict to these graphs (comma separated)")
	mixes := flag.Int("mixes", 0, "override the number of fig14 mixes")
	outDir := flag.String("out", "", "also write each table as <dir>/<id>.txt and .csv plus a sweep manifest.json")
	quiet := flag.Bool("q", false, "suppress progress logging")
	opts := graphmem.RegisterRunFlags(flag.CommandLine, "small")
	prof := graphmem.RegisterProfilingFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmreport:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "gmreport:", err)
		}
	}()

	wb, err := opts.NewWorkbench("gmreport")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmreport:", err)
		os.Exit(1)
	}
	if *mixes > 0 {
		wb.Profile.Mixes = *mixes
	}
	checkLevel := wb.CheckLevel
	if !*quiet {
		// All progress (run/cached lines with done/total and ETA,
		// narration) flows through the workbench's obs.Progress reporter;
		// -q leaves the sink unset so the reporter counts silently.
		wb.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}

	subset, err := graphmem.SubsetWorkloads(*kernelsFlag, *graphsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmreport:", err)
		os.Exit(1)
	}

	var ids []string
	if *exp == "all" {
		ids = graphmem.ExperimentIDs
	} else {
		ids = strings.Split(*exp, ",")
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "gmreport:", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	var done []string
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "fig14" && opts.WeaveJobs > 0 {
			fmt.Fprintln(os.Stderr, "gmreport: fig14 with -wj > 0 runs on the bound–weave engine, whose timing differs from the serial reference: these are not the Fig. 14 numbers (EXPERIMENTS.md, \"Serial vs bound–weave timing\")")
		}
		t, err := wb.Experiment(id, subset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmreport:", err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
		if *outDir != "" {
			if err := writeTableFiles(*outDir, t); err != nil {
				fmt.Fprintln(os.Stderr, "gmreport:", err)
				os.Exit(1)
			}
		}
		done = append(done, id)
	}
	if *outDir != "" {
		if err := writeSweepManifest(*outDir, wb, done, start); err != nil {
			fmt.Fprintln(os.Stderr, "gmreport:", err)
			os.Exit(1)
		}
	}
	if wb.Checkpoints != nil {
		fmt.Fprintf(os.Stderr, "gmreport: checkpoint store %s: %d hits, %d misses\n",
			wb.Checkpoints.Dir(), wb.Checkpoints.Hits(), wb.Checkpoints.Misses())
	}
	if wb.Store != nil {
		fmt.Fprintf(os.Stderr, "gmreport: %s\n", graphmem.StoreSummary(wb.Store))
	}
	if checkLevel != graphmem.CheckOff {
		runs, violations, details := wb.CheckOutcome()
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "gmreport: differential checker found %d violation(s) across %d checked runs:\n",
				violations, runs)
			for _, v := range details {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gmreport: differential checker clean across %d checked runs (level %s)\n",
			runs, checkLevel)
	}
}

// writeTableFiles persists one table as <dir>/<id>.txt and .csv.
func writeTableFiles(dir string, t *graphmem.Table) error {
	txt, err := os.Create(filepath.Join(dir, t.ID+".txt"))
	if err != nil {
		return err
	}
	t.Render(txt)
	if err := txt.Close(); err != nil {
		return err
	}
	csvf, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.RenderCSV(csvf); err != nil {
		csvf.Close()
		return err
	}
	return csvf.Close()
}

// writeSweepManifest records the sweep's provenance next to the tables.
func writeSweepManifest(dir string, wb *harness.Workbench, experiments []string, start time.Time) error {
	m := graphmem.NewManifest("gmreport")
	m.Profile = wb.Profile.Name
	m.Config = wb.BaseConfig().ManifestInfo()
	m.Experiments = experiments
	f, err := os.Create(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	if err := m.Finalize(start).WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
