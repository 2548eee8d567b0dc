package harness

import (
	"fmt"

	corepkg "graphmem/internal/core"
	"graphmem/internal/kernels"
)

// Tab1 renders the system configuration (Table I) of the profile's
// machine.
func (wb *Workbench) Tab1() *Table {
	cfg := wb.Profile.BaseConfig(1)
	t := &Table{ID: "tab1", Title: "System configuration (Table I)", Header: []string{"Component", "Description"}}
	t.AddRow("CPU", fmt.Sprintf("%.3f GHz, %d-wide out-of-order, %d-entry ROB",
		cfg.DRAM.CPUFreqMHz/1000, cfg.CPU.Width, cfg.CPU.ROB))
	t.AddRow("L1-D Cache", fmt.Sprintf("%d KiB, %d-way, %d-cycle latency, %d-entry MSHR, LRU, next-line prefetcher",
		cfg.L1D.SizeBytes>>10, cfg.L1D.Ways, cfg.L1D.Latency, cfg.L1D.MSHRs))
	t.AddRow("SDC", fmt.Sprintf("%d KiB, %d-way, %d-cycle latency, %d-entry MSHR, LRU, next-line prefetcher",
		cfg.SDC.SizeBytes>>10, cfg.SDC.Ways, cfg.SDC.Latency, cfg.SDC.MSHRs))
	t.AddRow("LP Predictor", fmt.Sprintf("%d entries, %d-way, LRU, tau_glob=%d",
		cfg.LP.Entries, cfg.LP.Ways, cfg.LP.Tau))
	t.AddRow("L2 Cache", fmt.Sprintf("%d KiB, %d-way, %d-cycle latency, %d-entry MSHR, LRU, SPP prefetcher",
		cfg.L2.SizeBytes>>10, cfg.L2.Ways, cfg.L2.Latency, cfg.L2.MSHRs))
	t.AddRow("LLC", fmt.Sprintf("%d KiB per core, %d-way, %d-cycle latency, %d-entry MSHR, LRU",
		cfg.LLCPerCoreBytes>>10, cfg.LLCWays, cfg.LLCLatency, cfg.LLCMSHRs))
	t.AddRow("SDCDir", fmt.Sprintf("%d entries per core, %d-way, 1-cycle latency, LRU",
		cfg.SDCDirEntriesPerCore, cfg.SDCDirWays))
	t.AddRow("L1 DTLB", "64-entry, 4-way, 1-cycle latency")
	t.AddRow("L2 TLB", "1536-entry, 12-way, 8-cycle latency")
	t.AddRow("DRAM", fmt.Sprintf("DDR4, data rate %.3f GT/s, I/O bus %.1f MHz, tRP=tRCD=tCAS=%d cycles, %d channel(s)",
		cfg.DRAM.BusFreqMHz*2/1000, cfg.DRAM.BusFreqMHz, cfg.DRAM.TCAS, cfg.DRAMChannels))
	if wb.Profile.Name == Bench().Name {
		t.Notes = append(t.Notes, "bench profile shrinks L1D/L2/LLC (the SDC keeps its 8 KiB) to keep graph:LLC ratios representative at small graph sizes")
	}
	return t
}

// Tab2 renders the graph-kernel characteristics (Table II) from the
// kernel table's rows: it builds no graph and no kernel instance.
func (wb *Workbench) Tab2() *Table {
	t := &Table{ID: "tab2", Title: "Graph kernels (Table II)",
		Header: []string{"Kernel", "irregData ElemSz", "Execution style", "Use frontier"}}
	for _, name := range kernels.Names(kernels.GAP) {
		k, _ := kernels.Lookup(name)
		frontier := "No"
		if k.UsesFrontier {
			frontier = "Yes"
		}
		t.AddRow(name, k.IrregElemBytes, string(k.Style), frontier)
	}
	return t
}

// Tab3 renders the input-graph inventory (Table III) with this
// profile's synthetic scales.
func (wb *Workbench) Tab3() *Table {
	t := &Table{ID: "tab3", Title: "Input graphs (Table III, synthetic stand-ins)",
		Header: []string{"Graph", "Vertices (M)", "Edges (M)", "MaxDeg", "AvgDeg"}}
	for _, name := range GraphNames {
		g := wb.Graph(name)
		s := g.ComputeStats()
		t.AddRow(name,
			fmt.Sprintf("%.2f", float64(s.Vertices)/1e6),
			fmt.Sprintf("%.2f", float64(s.Edges)/1e6),
			s.MaxDegree,
			fmt.Sprintf("%.1f", s.AvgDegree))
	}
	t.Notes = append(t.Notes,
		"synthetic generators matched by degree distribution and ID locality; see DESIGN.md substitutions")
	return t
}

// Tab4 renders the per-core hardware budget (Table IV).
func (wb *Workbench) Tab4(cores int) *Table {
	cfg := wb.Profile.BaseConfig(cores)
	rows := corepkg.Budget(cfg.SDC.SizeBytes, cfg.LP.Entries, cfg.SDCDirEntriesPerCore, cores)
	t := &Table{ID: "tab4", Title: "Hardware budget per core (Table IV)",
		Header: []string{"Structure", "Entries", "Bits/entry", "Total KB"}}
	for _, r := range rows {
		t.AddRow(r.Name, r.Entries, r.BitsPerItem, fmt.Sprintf("%.2f", r.KB))
	}
	t.AddRow("Total", "", "", fmt.Sprintf("%.2f", corepkg.TotalKB(rows)))
	return t
}
