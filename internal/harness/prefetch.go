package harness

import (
	"fmt"

	"graphmem/internal/sim"
)

// Prefetcher head-to-head ("prefetch"): the competitive baseline suite
// of internal/prefetch — conventional stride, indirect-memory (IMP),
// cross-core LLC (pickle) and their combinations — against the paper's
// Baseline and SDC+LP on the irregular kernels. Like "latency", the
// experiment is opt-in ('all' excludes it): it multiplies the workload
// subset by ~10 configurations.

// PrefetchBranchPenalty is the refill depth of the sensitivity row: the
// branch-misprediction penalty injected on ~1/32 of records, probing
// how prefetch timeliness interacts with pipeline restarts.
const PrefetchBranchPenalty = 14

// PrefetchRow is one (config, workload) outcome.
type PrefetchRow struct {
	// Label names the prefetcher configuration (the config Name alone
	// cannot: presets deliberately do not rename the config).
	Label    string
	Workload WorkloadID
	IPC      float64
	L1MPKI   float64 // L1D+SDC demand MPKI
	L2MPKI   float64
	LLCMPKI  float64
	DRAMRd   int64
	DRAMWr   int64
}

// PrefetchResult holds the head-to-head sweep.
type PrefetchResult struct {
	ID    string
	Title string
	Rows  []PrefetchRow
}

// PrefetchHeadToHead sweeps the prefetcher presets (plus SDC+LP, the
// combined SDC+LP+prefetch configuration, and the branch-penalty
// sensitivity row) over the workloads. A nil subset picks the paper's
// irregular quartet {pr,bfs,cc,sssp} x {kron,urand}.
func (wb *Workbench) PrefetchHeadToHead(subset []WorkloadID) *PrefetchResult {
	if subset == nil {
		var err error
		subset, err = SubsetWorkloads("pr,bfs,cc,sssp", "kron,urand")
		if err != nil {
			panic(err) // static kernel/graph lists; cannot fail
		}
	}
	base := wb.Profile.BaseConfig(1)
	type entry struct {
		label string
		cfg   sim.Config
	}
	configs := []entry{
		{"Baseline (nl+spp)", base},
		{"no prefetch", base.WithPrefetchers("none")},
		{"next-line only", base.WithPrefetchers("nextline")},
		{"stride", base.WithPrefetchers("stride")},
		{"imp", base.WithPrefetchers("imp")},
		{"pickle", base.WithPrefetchers("pickle")},
		{"spp+imp", base.WithPrefetchers("spp+imp")},
		{"SDC+LP", base.WithSDCLP()},
		{"SDC+LP spp+imp", base.WithSDCLP().WithPrefetchers("spp+imp")},
		{fmt.Sprintf("Baseline bp%d", PrefetchBranchPenalty), base.WithBranchMissPenalty(PrefetchBranchPenalty)},
	}
	var specs []RunSpec
	for _, e := range configs {
		specs = append(specs, wb.specsFor(e.cfg, subset)...)
	}
	rs := wb.runAll(specs)

	res := &PrefetchResult{
		ID:    "prefetch",
		Title: "Prefetcher head-to-head: competitive baselines vs SDC+LP",
	}
	for k, e := range configs {
		for i, id := range subset {
			st := rs[k*len(subset)+i].Stats
			res.Rows = append(res.Rows, PrefetchRow{
				Label:    e.label,
				Workload: id,
				IPC:      st.IPC(),
				L1MPKI:   st.L1DemandMPKI(),
				L2MPKI:   st.L2.MPKI(st.Instructions),
				LLCMPKI:  st.LLC.MPKI(st.Instructions),
				DRAMRd:   st.DRAMReads,
				DRAMWr:   st.DRAMWrites,
			})
		}
	}
	return res
}

// Table renders the head-to-head figure.
func (r *PrefetchResult) Table() *Table {
	t := &Table{ID: r.ID, Title: r.Title}
	t.Header = []string{"Config", "Workload", "IPC", "L1D MPKI", "L2 MPKI", "LLC MPKI", "DRAM rd", "DRAM wr"}
	for _, row := range r.Rows {
		t.AddRow(row.Label, row.Workload.String(),
			row.IPC, row.L1MPKI, row.L2MPKI, row.LLCMPKI,
			fmt.Sprint(row.DRAMRd), fmt.Sprint(row.DRAMWr))
	}
	t.Notes = append(t.Notes,
		"presets via Config.Prefetchers (none|nextline|spp|stride|imp|pickle|spp+imp); the Baseline default is next-line L1/SDC + SPP L2",
		fmt.Sprintf("bp%d: Config.BranchMissPenalty sensitivity row (~1/32 of records stall %d cycles; default 0)", PrefetchBranchPenalty, PrefetchBranchPenalty),
	)
	return t
}
