package harness

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"graphmem/internal/sim"
	"graphmem/internal/stats"
)

// mixCores is the thread count of the paper's multi-core mixes.
const mixCores = 4

// Fig14Result is the multi-core evaluation (Fig. 14): per-mix weighted
// speed-ups of each scheme over the Baseline, plus geomeans.
type Fig14Result struct {
	Mixes   [][]WorkloadID
	Schemes []string
	// WS[s][m] is the weighted speed-up of scheme s on mix m,
	// normalized to Baseline (1.0 = parity).
	WS [][]float64
	// GeomeanPct per scheme and the best per-scheme mix.
	GeomeanPct []float64
	MaxPct     []float64
}

// GenerateMixes draws n 4-thread mixes uniformly (with repetition) from
// the workload pool, deterministically from seed, like the paper's 50
// random mixes.
func GenerateMixes(pool []WorkloadID, n int, seed uint64) [][]WorkloadID {
	if pool == nil {
		pool = AllWorkloads()
	}
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	mixes := make([][]WorkloadID, n)
	for i := range mixes {
		mix := make([]WorkloadID, mixCores)
		for j := range mix {
			mix[j] = pool[r.IntN(len(pool))]
		}
		mixes[i] = mix
	}
	return mixes
}

// Fig14 runs the multi-core comparison over the profile's mix count
// (or len(mixes) if provided). Per mix, the four threads' isolated runs
// (alone on the Baseline machine: "IPC in isolation on the same
// system", Section IV-D), the Baseline mix and every scheme mix are
// mutually independent, so the full run set is enqueued on the worker
// pool up front like any other figure's points — isolated runs of a
// workload several mixes share dedupe on their key; the weighted-speed-up
// aggregation then walks schemes and mixes in the sequential order, so
// the result is identical at any parallelism.
func (wb *Workbench) Fig14(mixes [][]WorkloadID) *Fig14Result {
	if mixes == nil {
		mixes = GenerateMixes(nil, wb.Profile.Mixes, 14)
	}
	base4 := wb.Profile.BaseConfig(mixCores)
	configs := []sim.Config{
		base4,
		base4.WithBigL1D(),
		base4.WithDistill(),
		base4.WithTOPT(),
		base4.With2xLLC(),
		base4.WithSDCLP(),
	}
	// Per mix: mixCores isolated runs, then one mix run per config.
	perMix := mixCores + len(configs)
	specs := make([]RunSpec, 0, len(mixes)*perMix)
	for _, mix := range mixes {
		for _, id := range mix {
			specs = append(specs, wb.mixSpec(base4, id))
		}
		for _, cfg := range configs {
			specs = append(specs, wb.mixSpec(cfg, mix...))
		}
	}
	rs := runSpecs(wb, specs, wb.RunMix)

	res := &Fig14Result{Mixes: mixes}
	for k, cfg := range configs[1:] {
		res.Schemes = append(res.Schemes, cfg.Name)
		ws := make([]float64, len(mixes))
		maxPct := 0.0
		for m := range mixes {
			runs := rs[m*perMix : (m+1)*perMix]
			singles := make([]float64, mixCores)
			for i := range singles {
				singles[i] = runs[i].PerCore[0].IPC()
			}
			ws[m] = stats.WeightedSpeedup(runs[mixCores+1+k].IPCs(), singles, runs[mixCores].IPCs())
			if p := (ws[m] - 1) * 100; p > maxPct {
				maxPct = p
			}
			wb.log("mix %02d %-14s weighted speed-up %.3f", m, cfg.Name, ws[m])
		}
		res.WS = append(res.WS, ws)
		res.GeomeanPct = append(res.GeomeanPct, stats.GeoMeanSpeedup(ws))
		res.MaxPct = append(res.MaxPct, maxPct)
	}
	return res
}

// SchemeIndex returns the row of the named scheme, or -1.
func (r *Fig14Result) SchemeIndex(name string) int {
	for i, s := range r.Schemes {
		if s == name {
			return i
		}
	}
	return -1
}

// Table renders the result sorted by SDC+LP's improvement.
func (r *Fig14Result) Table() *Table {
	t := &Table{ID: "fig14", Title: "Multi-core weighted speed-up over Baseline (Fig. 14)"}
	t.Header = append([]string{"Mix"}, r.Schemes...)
	last := len(r.Schemes) - 1
	order := make([]int, len(r.Mixes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.WS[last][order[a]] < r.WS[last][order[b]] })
	for _, m := range order {
		row := []any{string(appendMixName(nil, r.Mixes[m]))}
		for s := range r.Schemes {
			row = append(row, pct(r.WS[s][m]))
		}
		t.AddRow(row...)
	}
	geo := []any{"geomean"}
	for s := range r.Schemes {
		geo = append(geo, fmt.Sprintf("%+.1f%%", r.GeomeanPct[s]))
	}
	t.AddRow(geo...)
	t.Notes = append(t.Notes, "paper geomeans: L1D ISO 0.02%, Distill -0.04%, T-OPT 6.4%, 2xLLC 2.4%, SDC+LP 20.2% (max 69.3%)")
	return t
}
