package harness

import (
	"fmt"
	"slices"
	"strings"

	"graphmem/internal/sim"
)

// This file is the by-name front door the tools share: one table per
// name space — experiments, machines (profiles: harness.go) — that
// dispatch, validation, help and error texts all read, plus the
// workload subset filter.

// experiment is one experiment a tool can name: its id, whether 'all'
// leaves it out (opt-in: served by name only), and how it runs on a
// workbench over a workload subset (nil: the experiment's default set).
type experiment struct {
	id    string
	optIn bool
	run   func(wb *Workbench, subset []WorkloadID) *Table
}

// experiments lists every experiment in report order: 'all' expands to
// the ones that are not opt-in. "latency" (the flight-recorder
// breakdown) and "prefetch" (the prefetcher head-to-head) re-run
// workloads under non-default machine settings, so 'all' excludes them
// to keep the default sweep identical to earlier releases.
var experiments = []experiment{
	{"tab1", false, func(wb *Workbench, _ []WorkloadID) *Table { return wb.Tab1() }},
	{"tab2", false, func(wb *Workbench, _ []WorkloadID) *Table { return wb.Tab2() }},
	{"tab3", false, func(wb *Workbench, _ []WorkloadID) *Table { return wb.Tab3() }},
	{"tab4", false, func(wb *Workbench, _ []WorkloadID) *Table { return wb.Tab4(1) }},
	{"fig2", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Fig2(subset).Table() }},
	{"fig3", false, func(wb *Workbench, subset []WorkloadID) *Table {
		id := WorkloadID{Kernel: "cc", Graph: "friendster"}
		if subset != nil {
			id = subset[0]
		}
		return wb.Fig3(id).Table()
	}},
	{"fig7", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Fig7(subset).Table() }},
	{"fig8", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Fig89(subset).Fig8Table() }},
	{"fig9", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Fig89(subset).Fig9Table() }},
	{"fig10", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Fig10(subset).Table() }},
	{"fig11", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Fig11(subset).Table() }},
	{"fig12", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Fig12(subset).Table() }},
	{"tau", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Tau(subset, nil).Table() }},
	{"fig13", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Fig13(subset).Table() }},
	{"fig14", false, func(wb *Workbench, subset []WorkloadID) *Table {
		return wb.Fig14(GenerateMixes(subset, wb.Profile.Mixes, 14)).Table()
	}},
	{"energy", false, func(wb *Workbench, subset []WorkloadID) *Table { return wb.Energy(subset).Table() }},
	{"latency", true, func(wb *Workbench, subset []WorkloadID) *Table { return wb.LatencyBreakdown(subset).Table() }},
	{"prefetch", true, func(wb *Workbench, subset []WorkloadID) *Table { return wb.PrefetchHeadToHead(subset).Table() }},
}

// ExperimentIDs lists, in report order, the experiment ids 'all'
// expands to, or with optIn set those served by name only.
func ExperimentIDs(optIn bool) []string {
	var ids []string
	for _, e := range experiments {
		if e.optIn == optIn {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// findExperiment looks an experiment up by id.
func findExperiment(id string) (experiment, error) {
	for _, e := range experiments {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// ResolveExperiments checks a requested experiment list before anything
// runs: ids are trimmed, a lone "all" expands to every experiment that
// is not opt-in, and an unknown id is refused by name.
func ResolveExperiments(ids []string) ([]string, error) {
	if len(ids) == 1 && strings.TrimSpace(ids[0]) == "all" {
		return ExperimentIDs(false), nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = strings.TrimSpace(id)
		if _, err := findExperiment(out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Experiment runs one experiment by id on the workbench and returns its
// renderable table. A nil subset means all 36 workloads (nil picks the
// prefetch experiment's own default subset).
func (wb *Workbench) Experiment(id string, subset []WorkloadID) (*Table, error) {
	e, err := findExperiment(id)
	if err != nil {
		return nil, err
	}
	return e.run(wb, subset), nil
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
	wantKernel, wantGraph := listFilter(kernelsList), listFilter(graphsList)
	var out []WorkloadID
	for _, id := range slices.Concat(AllWorkloads(), RegularWorkloads()) {
		if wantKernel(id.Kernel) && wantGraph(id.Graph) {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: subset filter (%q, %q) matched no workloads", kernelsList, graphsList)
	}
	return out, nil
}

// listFilter parses a comma-separated list once into its membership
// test: items are trimmed, and the empty list admits everything.
func listFilter(list string) func(string) bool {
	if list == "" {
		return func(string) bool { return true }
	}
	items := strings.Split(list, ",")
	for i, x := range items {
		items[i] = strings.TrimSpace(x)
	}
	return func(v string) bool { return slices.Contains(items, v) }
}

// entry is one row of a name table shaped like machines and profiles:
// its canonical name, the other spellings it answers to, and what the
// name selects.
type entry[V any] struct {
	name    string
	aliases []string
	v       V
}

// lookup finds the entry a name or alias selects.
func lookup[V any](table []entry[V], name string) (entry[V], bool) {
	for _, e := range table {
		if e.name == name || slices.Contains(e.aliases, name) {
			return e, true
		}
	}
	return entry[V]{}, false
}

// names lists a table's canonical names in table order.
func names[V any](table []entry[V]) []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// machines lists the named configurations in the order help and error
// texts name them; each derives its machine from the base machine.
var machines = []entry[func(base sim.Config) sim.Config]{
	{"baseline", []string{""}, func(base sim.Config) sim.Config { return base }},
	{"sdclp", []string{"sdc+lp"}, sim.Config.WithSDCLP},
	{"topt", []string{"t-opt"}, sim.Config.WithTOPT},
	{"adaptive", nil, sim.Config.WithAdaptiveLP},
	{"distill", nil, sim.Config.WithDistill},
	{"l1diso", []string{"l1d40kb"}, sim.Config.WithBigL1D},
	{"2xllc", nil, sim.Config.With2xLLC},
	{"expert", nil, sim.Config.WithExpert},
	{"victim", nil, func(base sim.Config) sim.Config { return base.WithVictimCache(8) }},
	{"rrip", []string{"srrip"}, sim.Config.WithRRIP},
	{"bypass", nil, sim.Config.WithBypassOnly},
}

// ConfigNames lists the canonical machine names in table order.
func ConfigNames() []string { return names(machines) }

// ConfigByName derives a named machine configuration from the base
// (the -config flag and gmserved's "config" field); names are
// case-insensitive.
func ConfigByName(base sim.Config, name string) (sim.Config, error) {
	if m, ok := lookup(machines, strings.ToLower(name)); ok {
		return m.v(base), nil
	}
	return base, fmt.Errorf("unknown config %q (%s)", name, strings.Join(ConfigNames(), "|"))
}
