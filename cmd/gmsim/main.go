// Command gmsim runs one workload on one machine configuration and
// prints the detailed statistics — the single-run entry point into the
// simulator.
//
// Usage:
//
//	gmsim -kernel pr -graph kron -config sdclp -profile bench
//	gmsim -kernel cc -graph friendster -config baseline -measure 5000000
//	gmsim -kernel pr -graph kron -config sdclp -json -epoch 100000 > run.json
//	gmsim -kernel pr -graph kron -cores 4
//	gmsim -kernel pr -graph kron -sample 65000,5000,13000 -store /tmp/gmstore
//
// With -cores N > 1 the workload is replicated on every core of an
// N-core machine (a homogeneous multi-programmed mix), run on the
// serial multi-core engine, and a per-core report is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"graphmem/internal/check"
	"graphmem/internal/harness"
	"graphmem/internal/kernels"
	"graphmem/internal/obs"
	"graphmem/internal/sim"
)

// fail reports err the way every gmsim misuse ends: on stderr, exit 1.
func fail(err any) int {
	fmt.Fprintln(os.Stderr, "gmsim:", err)
	return 1
}

func main() { os.Exit(run()) }

// run is the tool. It returns the exit status instead of calling
// os.Exit, so the deferred profile stop runs on every path.
func run() int {
	kernel := flag.String("kernel", "pr", "kernel: "+strings.Join(kernels.Names(kernels.GAP), "|")+" (or "+strings.Join(kernels.Names(kernels.Regular), "|")+" with -graph reg)")
	graphName := flag.String("graph", "kron", "input graph: "+strings.Join(harness.GraphNames, "|")+"|reg")
	configName := flag.String("config", "baseline", "machine configuration: "+strings.Join(harness.ConfigNames(), "|"))
	epoch := flag.Int64("epoch", 0, "sample telemetry every N retired instructions (0 = off)")
	frPath := flag.String("fr", "", "enable the memory-hierarchy flight recorder and write a Perfetto/Chrome trace to this path")
	frInterval := flag.Int64("frint", 0, "flight-recorder occupancy sampling interval in retired instructions (0 = measure/256)")
	cores := flag.Int("cores", 1, "simulated core count; >1 replicates the workload on every core of one shared machine")
	jsonOut := flag.Bool("json", false, "emit a structured run manifest on stdout instead of text")
	verbose := flag.Bool("v", false, "log run progress")
	opts := harness.RegisterRunFlags(flag.CommandLine, harness.Bench().Name)
	prof := obs.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "gmsim:", err)
		}
	}()

	// The run's flags become one config; whether its modes compose is
	// Config.Validate's call (via Configure), not a list kept here. These
	// are gmsim's own rules: flags its report would silently drop.
	switch {
	case *cores < 1:
		return fail("-cores must be >= 1")
	case *cores > 1 && (*jsonOut || *frPath != ""):
		// Output formats the per-core report has no counterpart for.
		return fail("-json and -fr are not supported with -cores > 1")
	case *cores > 1 && *epoch != 0:
		// The per-core report prints no epoch series, yet the interval
		// would still give the run a key of its own.
		return fail("-epoch is not supported with -cores > 1")
	case *frInterval != 0 && *frPath == "":
		return fail("-frint needs -fr")
	}
	id, err := harness.ResolveWorkload(*kernel, *graphName)
	if err != nil {
		return fail(err)
	}
	wb, err := opts.NewWorkbench("gmsim")
	if err != nil {
		return fail(err)
	}
	profile, checkLevel := wb.Profile, wb.CheckLevel
	if *verbose {
		wb.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	cfg, err := harness.ConfigByName(profile.BaseConfig(*cores), *configName)
	if err != nil {
		return fail(err)
	}
	if *epoch != 0 {
		cfg = cfg.WithEpochInterval(*epoch)
	}
	if *frPath != "" {
		cfg = cfg.WithFlightRecorder(*frInterval)
	}
	effective, err := wb.Configure(cfg)
	if err != nil {
		return fail(err)
	}
	// One workload per core: the point itself, or the homogeneous mix.
	ids := make([]harness.WorkloadID, *cores)
	for i := range ids {
		ids[i] = id
	}
	spec := wb.Spec(cfg, ids...)
	// reported prints what every run ends with on stderr — the store's
	// outcome and the checker's violations — and returns the exit status.
	reported := func(c check.Summary) int {
		if wb.Store != nil {
			fmt.Fprintf(os.Stderr, "gmsim: %s\n", harness.StoreSummary(wb.Store))
		}
		if checkLevel == check.Off || c.Violations == 0 {
			return 0
		}
		fmt.Fprintf(os.Stderr, "gmsim: differential checker found %d violation(s):\n", c.Violations)
		for _, v := range c.Details {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		return 1
	}

	if *cores > 1 {
		// The run goes through the workbench like a single-core one
		// (memo, store, -j pool, -v progress).
		res := wb.RunMix(spec)
		printMulti(effective, profile.Name, id, res)
		return reported(res.Check)
	}

	start := time.Now()
	res := wb.Run(spec)
	s := &res.Stats
	if *frPath != "" {
		err := obs.WritePerfettoFile(*frPath, []obs.TraceRun{
			{Name: cfg.Name + "/" + id.String(), Rec: res.Recorder},
		})
		if err != nil {
			return fail(err)
		}
	}
	status := reported(res.Check)

	if *jsonOut {
		m := obs.NewManifest("gmsim")
		m.Profile = profile.Name
		m.Workload = id.String()
		m.Graphs = wb.GraphLoads()
		m.RunKey = spec.Key()
		m.Config = effective.ManifestInfo()
		m.Reruns = res.Reruns
		m.Final = res.Stats
		m.Derived = obs.DeriveMetrics(&res.Stats)
		m.Epochs = res.Epochs
		m.FlightRecorder = res.Recorder
		m.Sampling = res.Sampling
		if checkLevel != check.Off {
			m.Check = &res.Check
		}
		if err := m.Finalize(start).WriteJSON(os.Stdout); err != nil {
			return fail(err)
		}
		return status
	}

	fmt.Printf("workload    %s\n", id)
	fmt.Printf("config      %s (%s profile)\n", cfg.Name, profile.Name)
	fmt.Printf("instructions %d  cycles %d  IPC %.3f\n", s.Instructions, s.Cycles, s.IPC())
	fmt.Printf("loads %d  stores %d  avg load latency %.1f cycles\n", s.Loads, s.Stores, s.AvgLoadLatency())
	fmt.Printf("MPKI        L1D %.1f  SDC %.1f  L2C %.1f  LLC %.1f\n",
		s.L1D.MPKI(s.Instructions), s.SDC.MPKI(s.Instructions),
		s.L2.MPKI(s.Instructions), s.LLC.MPKI(s.Instructions))
	fmt.Printf("served by   L1D %d  SDC %d  L2 %d  LLC %d  DRAM %d\n",
		s.ServedL1D, s.ServedSDC, s.ServedL2, s.ServedLLC, s.ServedDRAM)
	fmt.Printf("TLB         DTLB miss %.2f%%  STLB miss %.2f%%\n",
		s.DTLB.MissRate()*100, s.STLB.MissRate()*100)
	if s.LPPredAverse+s.LPPredFriendly > 0 {
		fmt.Printf("LP          averse %d  friendly %d  table misses %d (%.1f%% averse)\n",
			s.LPPredAverse, s.LPPredFriendly, s.LPTableMisses,
			100*float64(s.LPPredAverse)/float64(s.LPPredAverse+s.LPPredFriendly))
	}
	fmt.Printf("DRAM        reads %d  writes %d  row-hit %.1f%%\n",
		s.DRAMReads, s.DRAMWrites,
		100*float64(s.DRAMRowHits)/float64(1+s.DRAMRowHits+s.DRAMRowMisses))
	if e := res.Sampling; e != nil {
		fmt.Printf("sampling    %d samples, %d instructions detailed (%.1f%% of the %d-instruction window)\n",
			e.Samples, e.DetailedInstructions,
			100*float64(e.DetailedInstructions)/float64(profile.Measure), profile.Measure)
		fmt.Printf("estimates   IPC %.3f ±%.3f  MPKI L1D %.1f ±%.1f  L2C %.1f ±%.1f  LLC %.1f ±%.1f (99%% CI)\n",
			e.IPC.Mean, e.IPC.HalfWidth,
			e.L1DemandMPKI.Mean, e.L1DemandMPKI.HalfWidth,
			e.L2MPKI.Mean, e.L2MPKI.HalfWidth,
			e.LLCMPKI.Mean, e.LLCMPKI.HalfWidth)
	}
	if len(res.Epochs) > 0 {
		fmt.Printf("epochs      %d samples every %d instructions (use -json to export the series)\n",
			len(res.Epochs), *epoch)
	}
	if rec := res.Recorder; rec != nil {
		h := rec.LoadToUse
		fmt.Printf("load-to-use p50 %d  p90 %d  p99 %d cycles  (mean %.1f, max %d)\n",
			h.P50, h.P90, h.P99, h.Mean, h.Max)
		fmt.Printf("flight rec  %d timeline samples -> %s (open in ui.perfetto.dev)\n",
			len(rec.Samples), *frPath)
	}
	printCheck(effective, res.Check)
	return status
}

// printMulti renders the multi-core report. It is fully deterministic —
// no wall clock — so runs at any -j, or on different machines, can be
// byte-compared.
func printMulti(cfg sim.Config, profileName string, id harness.WorkloadID, res *sim.MultiResult) {
	n := len(res.PerCore)
	fmt.Printf("workload    %s x %d\n", id, n)
	fmt.Printf("config      %s (%s profile)  cores %d  engine serial\n", cfg.Name, profileName, n)
	var instr, cycles, loads, stores, dramR, dramW int64
	ipcSum := 0.0
	for i := range res.PerCore {
		s := &res.PerCore[i]
		fmt.Printf("core %3d    instructions %d  cycles %d  IPC %.3f  avg load %.1f  MPKI L1D %.1f SDC %.1f L2C %.1f LLC %.1f  DRAM %d\n",
			i, s.Instructions, s.Cycles, s.IPC(), s.AvgLoadLatency(),
			s.L1D.MPKI(s.Instructions), s.SDC.MPKI(s.Instructions),
			s.L2.MPKI(s.Instructions), s.LLC.MPKI(s.Instructions),
			s.ServedDRAM)
		instr += s.Instructions
		if s.Cycles > cycles {
			cycles = s.Cycles
		}
		loads += s.Loads
		stores += s.Stores
		dramR += s.DRAMReads
		dramW += s.DRAMWrites
		ipcSum += s.IPC()
	}
	fmt.Printf("aggregate   instructions %d  cycles(max) %d  IPC(sum) %.3f\n", instr, cycles, ipcSum)
	fmt.Printf("memory      loads %d  stores %d  DRAM reads %d  writes %d\n", loads, stores, dramR, dramW)
	printCheck(cfg, res.Check)
}

// printCheck renders the checker's line of a checked run's report.
func printCheck(cfg sim.Config, c check.Summary) {
	if cfg.CheckLevel != check.Off {
		fmt.Printf("check       level %s  loads %d  stores %d  sweeps %d  unknown %d  violations %d\n",
			c.Level, c.LoadsChecked, c.StoresTracked, c.Sweeps, c.UnknownVersions, c.Violations)
	}
}
