package harness

import (
	"fmt"
	"strings"

	"graphmem/internal/sim"
)

// This file is the by-name experiment front door shared by cmd/gmreport
// and cmd/gmserved: one registry mapping experiment ids to workbench
// methods, plus the flag-shaped helpers (workload subsets, named
// configs) the tools used to duplicate.

// ExperimentIDs lists every experiment 'all' expands to, in report
// order.
var ExperimentIDs = []string{
	"tab1", "tab2", "tab3", "tab4",
	"fig2", "fig3", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "tau", "fig13", "fig14", "energy",
}

// OptInExperimentIDs lists the experiments served by name only:
// "latency" (the flight-recorder breakdown) and "prefetch" (the
// prefetcher head-to-head) re-run workloads under non-default machine
// settings, so 'all' excludes them to keep the default sweep identical
// to earlier releases.
var OptInExperimentIDs = []string{"latency", "prefetch"}

// Experiment runs one experiment by id (a member of ExperimentIDs or
// OptInExperimentIDs) on the workbench and returns its renderable
// table. A nil subset means all 36 workloads (nil picks the prefetch
// experiment's own default subset).
func (wb *Workbench) Experiment(id string, subset []WorkloadID) (*Table, error) {
	switch id {
	case "tab1":
		return wb.Tab1(), nil
	case "tab2":
		return wb.Tab2(), nil
	case "tab3":
		return wb.Tab3(), nil
	case "tab4":
		return wb.Tab4(1), nil
	case "fig2":
		return wb.Fig2(subset).Table(), nil
	case "fig3":
		id := WorkloadID{Kernel: "cc", Graph: "friendster"}
		if subset != nil {
			id = subset[0]
		}
		return wb.Fig3(id).Table(), nil
	case "fig7":
		return wb.Fig7(subset).Table(), nil
	case "fig8":
		return wb.Fig89(subset).Fig8Table(), nil
	case "fig9":
		return wb.Fig89(subset).Fig9Table(), nil
	case "fig10":
		return wb.Fig10(subset).Table(), nil
	case "fig11":
		return wb.Fig11(subset).Table(), nil
	case "fig12":
		return wb.Fig12(subset).Table(), nil
	case "tau":
		return wb.Tau(subset, nil).Table(), nil
	case "fig13":
		return wb.Fig13(subset).Table(), nil
	case "energy":
		return wb.Energy(subset).Table(), nil
	case "latency":
		return wb.LatencyBreakdown(subset).Table(), nil
	case "prefetch":
		return wb.PrefetchHeadToHead(subset).Table(), nil
	case "fig14":
		var mixes [][]WorkloadID
		if subset != nil {
			mixes = GenerateMixes(subset, wb.Profile.Mixes, 14)
		}
		return wb.Fig14(mixes).Table(), nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}

// SubsetWorkloads builds the workload filter from comma-separated
// kernel and graph lists ("pr,cc", "kron,urand"). Empty lists match
// everything; both empty returns nil (all 36 workloads). The match pool
// is the graph suite plus the regular (Graph "reg") stand-ins, so
// "triad"/"reg" subsets resolve too.
func SubsetWorkloads(kernelsList, graphsList string) ([]WorkloadID, error) {
	if kernelsList == "" && graphsList == "" {
		return nil, nil
	}
	want := func(list string, v string) bool {
		if list == "" {
			return true
		}
		for _, x := range strings.Split(list, ",") {
			if strings.TrimSpace(x) == v {
				return true
			}
		}
		return false
	}
	var out []WorkloadID
	for _, id := range append(AllWorkloads(), RegularWorkloads()...) {
		if want(kernelsList, id.Kernel) && want(graphsList, id.Graph) {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: subset filter (%q, %q) matched no workloads", kernelsList, graphsList)
	}
	return out, nil
}

// ConfigByName derives a named machine configuration from the base
// (the -config flag and gmserved's "config" field).
func ConfigByName(base sim.Config, name string) (sim.Config, error) {
	switch strings.ToLower(name) {
	case "baseline", "":
		return base, nil
	case "sdclp", "sdc+lp":
		return base.WithSDCLP(), nil
	case "topt", "t-opt":
		return base.WithTOPT(), nil
	case "popt", "p-opt":
		return base.WithPOPT(), nil
	case "adaptive":
		return base.WithAdaptiveLP(), nil
	case "distill":
		return base.WithDistill(), nil
	case "l1diso", "l1d40kb":
		return base.WithBigL1D(), nil
	case "2xllc":
		return base.With2xLLC(), nil
	case "expert":
		return base.WithExpert(), nil
	case "victim":
		return base.WithVictimCache(8), nil
	case "rrip", "srrip":
		return base.WithRRIP(), nil
	case "bypass":
		return base.WithBypassOnly(), nil
	default:
		return base, fmt.Errorf("unknown config %q (baseline|sdclp|topt|popt|distill|l1diso|2xllc|expert|adaptive|victim|rrip|bypass)", name)
	}
}
