package main

import (
	"bytes"
	"time"

	"graphmem/internal/cache"
	"graphmem/internal/cpu"
	"graphmem/internal/dram"
	"graphmem/internal/graph"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/sim"
	"graphmem/internal/trace"
)

// Probes are layer measurements a traced run takes after its passes by
// calling one layer's public functions alone. They say what a layer
// costs without the layers around it; the spans say what it cost inside
// the workload.

// graphProbes times the transpose of g and a binary read of its own
// WriteBinary blob: the floor a graph cache could bring a build down to.
func graphProbes(e *env, parent int, g *graph.Graph) error {
	e.set("graph.transpose_s", e.layerCall("graph.transpose", parent, func() { g.Transpose() }).Seconds())
	var blob bytes.Buffer
	if err := g.WriteBinary(&blob); err != nil {
		return err
	}
	var err error
	d := e.layerCall("graph.binary_read", parent, func() { _, err = graph.ReadBinary(&blob) })
	e.set("graph.binary_read_s", d.Seconds())
	return err
}

// traceProbe runs each kernel into a counting sink for the workload's
// instruction window with no simulator attached.
func traceProbe(e *env, parent int, insts []kernels.Instance, window int64) (nsPerRecord float64) {
	var records int64
	var spent time.Duration
	for _, inst := range insts {
		sink := &windowSink{limit: window}
		spent += e.layerCall("kernels.trace", parent, func() { sink.fill(inst) })
		records += sink.records
	}
	nsPerRecord = float64(spent.Nanoseconds()) / float64(max(1, records))
	e.set("kernels.records", float64(records))
	e.set("kernels.trace_ns_per_record", nsPerRecord)
	return nsPerRecord
}

// modelProbes replays recorded accesses of inst into the core model
// over a constant-latency memory, into an L1D-sized cache alone, and
// that cache's misses into the DRAM model alone.
func modelProbes(e *env, parent int, inst kernels.Instance, cfg sim.Config) (cpuNsPerRecord float64) {
	sink := &trace.SliceSink{Limit: int64(e.sz.probeRecords)}
	for int64(len(sink.Recs)) < sink.Limit {
		before := len(sink.Recs)
		inst.Run(trace.New(sink))
		if len(sink.Recs) == before {
			break
		}
	}
	recs := sink.Recs
	n := float64(max(1, len(recs)))

	core := cpu.New(cfg.CPU, func(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
		return mem.Response{Ready: issue + cfg.L1D.Latency, Source: mem.ServedL1D}
	})
	d := e.layerCall("cpu.access", parent, func() {
		for _, r := range recs {
			core.Access(r)
		}
	})
	cpuNsPerRecord = float64(d.Nanoseconds()) / n
	e.set("cpu.access_ns_per_record", cpuNsPerRecord)

	l1 := cache.New(cfg.L1D)
	misses := make([]mem.BlockAddr, 0, len(recs)/4)
	d = e.layerCall("cache.lookup_fill", parent, func() {
		for i, r := range recs {
			blk, now := r.Addr.Block(), int64(i)
			if !l1.Lookup(blk, r.Addr, r.Size, r.Write, false, now).Hit {
				l1.Fill(blk, r.Addr, r.Size, r.Write, false, now+cfg.L1D.Latency)
				misses = append(misses, blk)
			}
		}
	})
	e.set("cache.lookup_fill_ns", float64(d.Nanoseconds())/n)

	memory := dram.NewMemory(cfg.DRAM, cfg.DRAMChannels)
	d = e.layerCall("dram.access", parent, func() {
		now := int64(0)
		for _, blk := range misses {
			now = memory.Access(blk, false, now)
		}
	})
	e.set("dram.access_ns", float64(d.Nanoseconds())/float64(max(1, len(misses))))
	return cpuNsPerRecord
}

func (w *coldPoint) probes(e *env, parent int) error {
	w.totals.report(e, w.simS, w.prof.Warmup, w.prof.Measure)
	e.set("sim.run_s", w.simS)
	e.set("kernels.prepare_s", w.prepareS)
	e.set("sim.ns_per_instr", w.simS*1e9/float64(int64(len(coldPoints))*(w.prof.Warmup+w.prof.Measure)))
	// The first cold point's graph, built once more outside any pass.
	e.tr.scope(parent)
	g := w.prof.Graphs[coldPoints[0].graph].Build()
	if err := graphProbes(e, parent, g); err != nil {
		return err
	}
	return codecProbes(e, parent, w.last)
}

func (w *detailSim) probes(e *env, parent int) error {
	w.totals.report(e, w.simS, w.cfgs[0].Warmup, w.cfgs[0].Measure)
	e.set("sim.sdclp_speedup_pct", w.speedup)
	window := w.cfgs[0].Warmup + w.cfgs[0].Measure
	insts := make([]kernels.Instance, len(w.workloads))
	for i, wl := range w.workloads {
		insts[i] = wl.Inst
	}
	traceNs := traceProbe(e, parent, insts, window)
	cpuNs := modelProbes(e, parent, insts[0], w.cfgs[0])
	// Every instance ran under both machines in the pass; the probe ran
	// each once.
	records := 2 * e.layer["kernels.records"]
	instrs := float64(2*len(w.workloads)) * float64(window)
	e.set("sim.ns_per_instr", w.simS*1e9/instrs)
	// An estimate: the probes run each layer alone with warm host
	// caches, so what is left over also holds what the layers cost each
	// other.
	e.set("sim.hierarchy_ns_per_record", w.simS*1e9/max(1, records)-traceNs-cpuNs)
	return nil
}

func (w *multicoreWeave) probes(e *env, parent int) error {
	w.totals.report(e, w.simS, w.cfg.Warmup, w.cfg.Measure)
	window := w.cfg.Warmup + w.cfg.Measure
	e.set("sim.ns_per_instr", w.simS*1e9/float64(int64(len(weaveMix))*window))
	// One more run with a single weave worker: what the parallel bound
	// phase buys on this host.
	cfg := w.cfg
	cfg.WeaveWorkers = 1
	serial := e.layerCall("sim.weave_serial", parent, func() { sim.RunMultiCore(cfg, w.workloads) })
	e.set("sim.weave_speedup", serial.Seconds()/w.simS)
	return nil
}
