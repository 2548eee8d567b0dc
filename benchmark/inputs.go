package main

import (
	"graphmem/internal/graph"
	"graphmem/internal/harness"
)

// sizes are the workload dimensions. The graphs and the machine are
// harness.Bench()'s. Every simulated workload keeps a warm-up that
// covers the longest sequential initialisation phase of its kernels
// (pr's contrib refresh: 6 instructions per vertex, 3.15 M on the 2^19
// vertex graphs), as harness.Bench()'s own 4 M warm-up does, so that
// the measured window is the data-dependent phase; checkPhase fails a
// run where it is not. What is trimmed to fit a run is the measured
// window and the number of passes (see README "Sizing").
type sizes struct {
	// Instruction windows (warm-up, measured) per workload.
	pointWarm, pointMeasure   int64 // cold_point
	detailWarm, detailMeasure int64 // detail_sim
	sweepWarm, sweepMeasure   int64 // sweep_cold, sweep_warm
	mixWarm, mixMeasure       int64 // multicore_weave, per core
	serveWarm, serveMeasure   int64 // serve_warm store content

	warmSweepsPerPass int // sweep_warm sweeps in one pass
	serveOpsPerPass   int // serve_warm operations in one pass
	sweepEvery        int // every n-th serve_warm operation is a sweep
	probeRecords      int // records replayed by the cpu/cache/dram probes
	minPasses         int // passes a run makes however short -seconds is

	graphs graphParams
}

// graphParams are harness.graphSet's arguments for the four generators
// the benchmark uses. benchGraphs repeats harness.Bench()'s values so
// that a seed other than 1 can rebuild the same generators with other
// seeds; TestSeedOneMatchesProfile pins the two together.
type graphParams struct {
	vBig      int32
	degPL     int
	kronScale int
	kronEF    int64
}

var benchGraphs = graphParams{vBig: 450_000, degPL: 6, kronScale: 19, kronEF: 8}

func normalSizes() sizes {
	return sizes{
		pointWarm: 3_500_000, pointMeasure: 500_000,
		detailWarm: 3_500_000, detailMeasure: 500_000,
		sweepWarm: 3_500_000, sweepMeasure: 500_000,
		mixWarm: 3_500_000, mixMeasure: 500_000,
		// serve_warm simulates in set-up only, to have bytes to serve; no
		// simulated number of its points is reported and a served result
		// costs the same whatever phase it describes.
		serveWarm: 200_000, serveMeasure: 200_000,
		warmSweepsPerPass: 400,
		serveOpsPerPass:   1000,
		sweepEvery:        100,
		probeRecords:      1_000_000,
		minPasses:         3,
		graphs:            benchGraphs,
	}
}

// quickSizes is the smoke path: graphs of a few thousand vertices,
// 100 k-instruction windows, 50 requests, one pass.
func quickSizes() sizes {
	return sizes{
		pointWarm: 50_000, pointMeasure: 50_000,
		detailWarm: 50_000, detailMeasure: 50_000,
		sweepWarm: 50_000, sweepMeasure: 50_000,
		mixWarm: 50_000, mixMeasure: 50_000,
		serveWarm: 50_000, serveMeasure: 50_000,
		warmSweepsPerPass: 3,
		serveOpsPerPass:   50,
		sweepEvery:        25,
		probeRecords:      20_000,
		minPasses:         1,
		graphs:            graphParams{vBig: 4_000, degPL: 6, kronScale: 12, kronEF: 8},
	}
}

// seedMix turns -seed into the value XORed into every generator seed:
// seed 1 gives 0, the profile's own seeds, so numbers line up with
// README and EXPERIMENTS; every other seed gives other graphs.
func seedMix(seed uint64) uint64 { return seed ^ 1 }

// generators returns the four graph builders the workloads use, built
// like harness.graphSet builds them but with mix XORed into the seeds.
func generators(p graphParams, mix uint64) map[string]func() *graph.Graph {
	return map[string]func() *graph.Graph{
		"twitter": func() *graph.Graph {
			return graph.PowerLaw(p.vBig, p.degPL, 0.15, false, 0x7517^mix)
		},
		"kron": func() *graph.Graph {
			return graph.Kron(p.kronScale, p.kronEF, 0x6501^mix)
		},
		"urand": func() *graph.Graph {
			return graph.Urand(1<<uint(p.kronScale), p.kronEF<<uint(p.kronScale)/2, 0x0a4d^mix)
		},
		"friendster": func() *graph.Graph {
			return graph.PowerLaw(p.vBig+p.vBig/4, p.degPL+2, 0.05, true, 0xF12E^mix)
		},
	}
}

// profile is harness.Bench() with this run's windows and graph
// builders. It keeps the name "bench": gmserved resolves that name and
// the store keys on it. Seed 1 at full size uses the profile's own
// builders; otherwise the benchmark's copies replace the four graphs it
// uses. Every builder is wrapped so that builds the harness triggers on
// its own goroutines are recorded as graph.build spans too.
func (e *env) profile(warmup, measure int64) harness.Profile {
	p := harness.Bench()
	p.Warmup, p.Measure = warmup, measure
	p.MixWarmup, p.MixMeasure = e.sz.mixWarm, e.sz.mixMeasure
	builders := make(map[string]func() *graph.Graph, len(p.Graphs))
	for name, spec := range p.Graphs {
		builders[name] = spec.Build
	}
	if mix := seedMix(e.seed); mix != 0 || e.sz.graphs != benchGraphs {
		for name, build := range generators(e.sz.graphs, mix) {
			builders[name] = build
		}
	}
	graphs := make(map[string]harness.GraphSpec, len(builders))
	for name, build := range builders {
		graphs[name] = harness.GraphSpec{Name: name, Build: func() *graph.Graph {
			// Concurrent builds each get a display row of their own.
			id := e.tr.beginLane("graph.build", e.tr.current(), int(e.openBuilds.Add(1)))
			g := build()
			e.openBuilds.Add(-1)
			e.tr.end(id)
			e.noteGraph(g)
			return g
		}}
	}
	p.Graphs = graphs
	return p
}
