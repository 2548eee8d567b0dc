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
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphmem/internal/check"
	"graphmem/internal/harness"
	"graphmem/internal/obs"
	"graphmem/internal/store"
)

func main() { os.Exit(run()) }

// fail reports err the way every gmreport error ends: on stderr, exit 1.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "gmreport:", err)
	return 1
}

// run is the tool. It returns the exit status instead of calling
// os.Exit, so the deferred profile stop runs on every path.
func run() int {
	exp := flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(harness.ExperimentIDs(false), ",")+
		"; by name only: "+strings.Join(harness.ExperimentIDs(true), ",")+") or 'all'")
	kernelsFlag := flag.String("kernels", "", "restrict to these kernels (comma separated)")
	graphsFlag := flag.String("graphs", "", "restrict to these graphs (comma separated)")
	mixes := flag.Int("mixes", 0, "override the number of fig14 mixes")
	outDir := flag.String("out", "", "also write each table as <dir>/<id>.txt and .csv plus a sweep manifest.json")
	quiet := flag.Bool("q", false, "suppress progress logging")
	opts := harness.RegisterRunFlags(flag.CommandLine, harness.Small().Name)
	prof := obs.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "gmreport:", err)
		}
	}()

	// Every id is checked before the first experiment runs, so a typo
	// late in the list costs no simulation.
	ids, err := harness.ResolveExperiments(strings.Split(*exp, ","))
	if err != nil {
		return fail(err)
	}
	if *mixes < 0 {
		return fail(fmt.Errorf("negative -mixes %d", *mixes))
	}
	wb, err := opts.NewWorkbench("gmreport")
	if err != nil {
		return fail(err)
	}
	if *mixes > 0 {
		wb.Profile.Mixes = *mixes
	}
	checkLevel := wb.CheckLevel
	if !*quiet {
		// All progress (run/cached lines with done/total and ETA,
		// narration) flows through the workbench's ledger; -q leaves the
		// sink unset so the ledger counts silently.
		wb.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}

	subset, err := harness.SubsetWorkloads(*kernelsFlag, *graphsFlag)
	if err != nil {
		return fail(err)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(err)
		}
	}

	start := time.Now()
	var done []string
	for _, id := range ids {
		t, err := wb.Experiment(id, subset)
		if err != nil {
			return fail(err)
		}
		t.Render(os.Stdout)
		if *outDir != "" {
			if err := writeTableFiles(*outDir, t); err != nil {
				return fail(err)
			}
		}
		done = append(done, id)
	}
	if *outDir != "" {
		if err := writeSweepManifest(*outDir, wb, done, start); err != nil {
			return fail(err)
		}
	}
	if wb.Store != nil {
		fmt.Fprintf(os.Stderr, "gmreport: %s\n", harness.StoreSummary(wb.Store))
	}
	if checkLevel != check.Off {
		runs, violations, details := wb.CheckOutcome()
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "gmreport: differential checker found %d violation(s) across %d checked runs:\n",
				violations, runs)
			for _, v := range details {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			return 1
		}
		fmt.Fprintf(os.Stderr, "gmreport: differential checker clean across %d checked runs (level %s)\n",
			runs, checkLevel)
	}
	return 0
}

// writeTableFiles persists one table as <dir>/<id>.txt and .csv, each
// published atomically.
func writeTableFiles(dir string, t *harness.Table) error {
	render := func(w io.Writer) error { t.Render(w); return nil }
	if err := store.WriteFileAtomic(dir, filepath.Join(dir, t.ID+".txt"), render); err != nil {
		return err
	}
	return store.WriteFileAtomic(dir, filepath.Join(dir, t.ID+".csv"), t.RenderCSV)
}

// writeSweepManifest records the sweep's provenance next to the tables.
func writeSweepManifest(dir string, wb *harness.Workbench, experiments []string, start time.Time) error {
	m := obs.NewManifest("gmreport")
	m.Profile = wb.Profile.Name
	m.Config = wb.BaseConfig().ManifestInfo()
	m.Experiments = experiments
	return store.WriteFileAtomic(dir, filepath.Join(dir, "manifest.json"), m.Finalize(start).WriteJSON)
}
