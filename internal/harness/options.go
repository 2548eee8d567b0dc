package harness

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphmem/internal/check"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
)

// This file is the run-flag front door shared by cmd/gmsim,
// cmd/gmreport and cmd/gmserved: one declaration of the run flags, and
// the workbench they resolve to.

// RunOptions are the run settings gmsim, gmreport and gmserved share:
// RegisterRunFlags declares each flag once, and gmserved's request
// bodies decode their profile and windows into the same struct.
type RunOptions struct {
	Profile string `json:"profile"`
	// Warmup/Measure, when positive, override the profile's single-core
	// windows (they are part of every run's identity, so overridden runs
	// cache separately); 0 keeps the profile's, and a negative one is
	// refused.
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`

	Check         string `json:"-"`
	Sample        string `json:"-"`
	Store         string `json:"-"`
	Metrics       string `json:"-"`
	Jobs          int    `json:"-"`
	Prefetchers   string `json:"-"`
	BranchPenalty int64  `json:"-"`
}

// RegisterRunFlags installs the shared run flags on a flag set; call
// NewWorkbench on the result after flag parsing.
func RegisterRunFlags(fs *flag.FlagSet, defaultProfile string) *RunOptions {
	o := &RunOptions{}
	fs.StringVar(&o.Profile, "profile", defaultProfile, "scale profile: "+strings.Join(names(profiles), "|"))
	fs.Int64Var(&o.Warmup, "warmup", 0, "override the single-core warm-up instructions")
	fs.Int64Var(&o.Measure, "measure", 0, "override the single-core measured instructions")
	fs.StringVar(&o.Check, "check", check.Off.String(), "differential checking: "+strings.Join(check.LevelNames(), "|")+" (exit 1 on any violation)")
	fs.StringVar(&o.Sample, "sample", "", "run eligible single-core simulations under the statistical sampler \"period,len,offset[,warm]\" (instructions); results are CI estimates")
	fs.StringVar(&o.Store, "store", "", "disk-backed result store directory (serves repeated runs, single- and multi-core, from disk; output is byte-identical either way)")
	fs.StringVar(&o.Metrics, "metrics", "", "serve live metrics (Prometheus text + expvar) on this address, e.g. :6060")
	fs.IntVar(&o.Jobs, "j", 0, "max concurrent simulations (0 = all host cores); output is identical at any -j")
	fs.StringVar(&o.Prefetchers, "pf", "", "prefetcher preset for the base machine: "+strings.Join(sim.PrefetcherPresets(), "|")+" (empty = Table I default)")
	fs.Int64Var(&o.BranchPenalty, "bp", 0, "branch-miss penalty in cycles on ~1/32 of records (0 = off, the default machine)")
	return o
}

// ScaleProfile resolves -profile with the -warmup/-measure overrides;
// -pf/-bp, when set, apply to the machine its BaseConfig returns, from
// which every config a tool or experiment runs is derived. A negative
// window or -j is refused rather than read as "unset".
func (o RunOptions) ScaleProfile() (Profile, error) {
	switch {
	case o.Warmup < 0:
		return Profile{}, fmt.Errorf("harness: negative warmup %d", o.Warmup)
	case o.Measure < 0:
		return Profile{}, fmt.Errorf("harness: negative measure %d", o.Measure)
	case o.Jobs < 0:
		return Profile{}, fmt.Errorf("harness: negative -j %d", o.Jobs)
	}
	p, err := ProfileByName(o.Profile)
	if err != nil {
		return p, err
	}
	if o.Warmup > 0 {
		p.Warmup = o.Warmup
	}
	if o.Measure > 0 {
		p.Measure = o.Measure
	}
	if pf, bp, base := o.Prefetchers, o.BranchPenalty, p.BaseConfig; pf != "" || bp != 0 {
		p.BaseConfig = func(cores int) sim.Config {
			return base(cores).WithPrefetchers(pf).WithBranchMissPenalty(bp)
		}
	}
	return p, nil
}

// NewWorkbench builds the workbench the options describe — opening the
// store and, with -metrics, serving its ledger (tool prefixes the
// notice) — and fails with Config.Validate's reason when the requested
// modes do not compose on the base machine.
func (o RunOptions) NewWorkbench(tool string) (*Workbench, error) {
	profile, err := o.ScaleProfile()
	if err != nil {
		return nil, err
	}
	wb := NewWorkbench(profile)
	wb.Parallelism = o.Jobs
	if wb.CheckLevel, err = check.ParseLevel(o.Check); err != nil {
		return nil, err
	}
	if wb.Sampling, err = sample.ParsePlan(o.Sample); err != nil {
		return nil, err
	}
	if o.Store != "" {
		if wb.Store, err = OpenResultStore(o.Store); err != nil {
			return nil, err
		}
		wb.Metrics.AttachStore(wb.Store)
	}
	if _, err := wb.Configure(profile.BaseConfig(1)); err != nil {
		return nil, err
	}
	if o.Metrics != "" {
		addr, err := wb.Metrics.Serve(o.Metrics)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: serving metrics at http://%s/metrics\n", tool, addr)
	}
	return wb, nil
}
