package harness

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

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

// isolatedSpec is the spec of id's isolated run: alone on the Baseline
// multi-core machine ("IPC in isolation on the same system", Section
// IV-D).
func (wb *Workbench) isolatedSpec(id WorkloadID) RunSpec {
	return newRunSpec(kindIsolated, wb.mixConfig(wb.Profile.BaseConfig(mixCores)), id, wb.Profile.Name)
}

// singleIPC returns the isolated IPC of a workload, memoized and
// single-flight — concurrent requests for the same id share one live
// run.
func (wb *Workbench) singleIPC(id WorkloadID) float64 {
	s := wb.isolatedSpec(id)
	label := fmt.Sprintf("isolated %-22s", id)
	v, shared := wb.singles.do(s.key, func() float64 {
		cfg, slots := wb.acquireSim(s.cfg)
		defer wb.releaseN(slots)
		ws := make([]sim.Workload, mixCores)
		ws[0] = wb.Workload(id, 0)
		finish := wb.Reporter.StartRun(label)
		res := sim.RunMultiCore(cfg, ws)
		v := res.PerCore[0].IPC()
		finish(fmt.Sprintf("IPC=%.3f", v))
		wb.recordCheck(res.Check)
		return v
	})
	if shared {
		wb.Reporter.Cached(label, fmt.Sprintf("IPC=%.3f", v))
	}
	return v
}

// runMix simulates one mix on one config (inside a worker-pool slot)
// and returns per-thread shared IPCs. Mix runs are not memoized: each
// (config, mix) point is simulated exactly once per Fig14 call.
func (wb *Workbench) runMix(cfg sim.Config, mix []WorkloadID) []float64 {
	cfg, slots := wb.acquireSim(wb.mixConfig(cfg))
	defer wb.releaseN(slots)
	ws := make([]sim.Workload, mixCores)
	names := ""
	for i, id := range mix {
		ws[i] = wb.Workload(id, i)
		if i > 0 {
			names += "+"
		}
		names += id.String()
	}
	finish := wb.Reporter.StartRun(fmt.Sprintf("mix %-14s %s", cfg.Name, names))
	res := sim.RunMultiCore(cfg, ws)
	ipcs := res.IPCs()
	finish(fmt.Sprintf("IPCs=%.3v", ipcs))
	wb.recordCheck(res.Check)
	return ipcs
}

// liveIsolated counts the distinct mix threads whose isolated run will
// actually execute (not yet memoized or in flight); repeats join the
// single-flight call and self-report as cached.
func (wb *Workbench) liveIsolated(mixes [][]WorkloadID) int {
	seen := make(map[WorkloadID]bool)
	live := 0
	for _, mix := range mixes {
		for _, id := range mix {
			if !seen[id] && !wb.singles.has(wb.isolatedSpec(id).key) {
				live++
			}
			seen[id] = true
		}
	}
	return live
}

// Fig14 runs the multi-core comparison over the profile's mix count
// (or len(mixes) if provided). Isolated runs, baseline mixes and every
// scheme mix are mutually independent, so the full run set is enqueued
// on the worker pool up front; the weighted-speed-up aggregation then
// walks schemes and mixes in the sequential order, so the result is
// identical at any parallelism.
func (wb *Workbench) Fig14(mixes [][]WorkloadID) *Fig14Result {
	if mixes == nil {
		mixes = GenerateMixes(nil, wb.Profile.Mixes, 14)
	}
	base4 := wb.Profile.BaseConfig(mixCores)
	configs := []sim.Config{
		base4.WithBigL1D(),
		base4.WithDistill(),
		base4.WithTOPT(),
		base4.With2xLLC(),
		base4.WithSDCLP(),
	}
	res := &Fig14Result{Mixes: mixes}
	// Plan the live work only: every mix run executes, while isolated
	// runs dedupe through the singles cache.
	wb.Reporter.Plan(len(mixes)*(1+len(configs)) + wb.liveIsolated(mixes))

	singles := make([][]float64, len(mixes))
	baseShared := make([][]float64, len(mixes))
	shared := make([][][]float64, len(configs)) // [scheme][mix][thread]
	for k := range configs {
		shared[k] = make([][]float64, len(mixes))
	}
	var wg sync.WaitGroup
	for m, mix := range mixes {
		singles[m] = make([]float64, mixCores)
		for i, id := range mix {
			wg.Add(1)
			go func() {
				defer wg.Done()
				singles[m][i] = wb.singleIPC(id)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			baseShared[m] = wb.runMix(base4, mix)
		}()
		for k, cfg := range configs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				shared[k][m] = wb.runMix(cfg, mix)
			}()
		}
	}
	wg.Wait()

	for k, cfg := range configs {
		res.Schemes = append(res.Schemes, cfg.Name)
		ws := make([]float64, len(mixes))
		maxPct := 0.0
		for m := range mixes {
			ws[m] = stats.WeightedSpeedup(shared[k][m], singles[m], baseShared[m])
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
		mixName := ""
		for j, id := range r.Mixes[m] {
			if j > 0 {
				mixName += "+"
			}
			mixName += id.String()
		}
		row := []any{mixName}
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
