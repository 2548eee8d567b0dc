package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"graphmem/internal/harness"
	"graphmem/internal/obs"
	"graphmem/internal/sim"
	"graphmem/internal/store"
)

// The sweep both sweep workloads run: Table I, the Fig. 3 profile and
// the Fig. 10 SDC-size grid over pr,cc x kron,urand — 16 simulation
// points and one profiling run.
var (
	sweepExperiments = []string{"tab1", "fig3", "fig10"}
	sweepKernels     = "pr,cc"
	sweepGraphs      = "kron,urand"
)

const sweepPoints = 17 // baseline + 3 SDC sizes over 4 workloads, + fig3

// sweepOut is what one sweep produced, seen from outside the harness.
type sweepOut struct {
	report    []byte // the rendered tables, as gmreport would print them
	live      int64  // simulations run
	memoHits  int64  // runs served by the in-process memo
	storeHits int64  // runs served by the disk store
	liveS     float64
	st        *store.Store
	wb        *harness.Workbench // still holds the graphs the sweep built
}

// runSweep runs the sweep on a fresh workbench over the store in dir.
func runSweep(e *env, prof harness.Profile, dir string, parent int) (*sweepOut, error) {
	var st *store.Store
	var err error
	e.layerCall("store.open", parent, func() { st, err = harness.OpenResultStore(dir) })
	if err != nil {
		return nil, err
	}
	subset, err := harness.SubsetWorkloads(sweepKernels, sweepGraphs)
	if err != nil {
		return nil, err
	}
	var wb *harness.Workbench
	e.layerCall("harness.new", parent, func() { wb = harness.NewWorkbench(prof) })
	wb.Parallelism = e.workers
	wb.Store = st
	wb.Metrics = obs.NewMetrics()
	var report bytes.Buffer
	for _, id := range sweepExperiments {
		var table *harness.Table
		sp := e.tr.begin("harness.experiment", parent)
		e.tr.scope(sp)
		table, err = wb.Experiment(id, subset)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		e.layerCall("harness.render", parent, func() { table.Render(&report) })
	}
	out := &sweepOut{report: report.Bytes(), st: st, wb: wb}
	_, out.live, out.memoHits, out.storeHits = wb.Metrics.Counts()
	out.liveS = liveRunSeconds(wb.Metrics)
	return out, nil
}

// checkSweepPhases checks the windows of the sweep's four workloads on
// the workbench that just ran them, which still holds their graphs.
func checkSweepPhases(e *env, out *sweepOut) error {
	subset, err := harness.SubsetWorkloads(sweepKernels, sweepGraphs)
	if err != nil {
		return err
	}
	for _, id := range subset {
		e.checkPhase(out.wb.Workload(id, 0), out.wb.Profile.Warmup, out.wb.Profile.Measure)
	}
	return nil
}

// liveRunSeconds sums graphmem_run_seconds over the registry's
// Prometheus exposition: the seconds the harness itself measured around
// each live simulation.
func liveRunSeconds(m *obs.Metrics) float64 {
	var b strings.Builder
	m.WritePrometheus(&b)
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "graphmem_run_seconds{") {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// storedResults decodes every simulation result in a store directory.
func storedResults(dir string) (results []*sim.Result, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		payload, err := sim.ResultFraming().Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		// The Fig. 3 profile shares the store under its own key space
		// and is not a sim.Result.
		if res, err := sim.DecodeResult(payload); err == nil && res.Config != "" {
			results = append(results, res)
		}
	}
	return results, nil
}

// checkStore checks what a cold sweep left in its store: one file per
// point, each simulation result a filled window with consistent
// counters.
func checkStore(e *env, st *store.Store, measure int64) ([]*sim.Result, error) {
	files, size, err := st.Size()
	if err != nil {
		return nil, err
	}
	results, err := storedResults(st.Dir())
	if err != nil {
		return nil, err
	}
	e.set("store.entries", float64(files))
	e.set("store.bytes", float64(size))
	if files != sweepPoints || len(results) != sweepPoints-1 {
		e.fail("store holds %d files and %d results after a cold sweep, want %d and %d", files, len(results), sweepPoints, sweepPoints-1)
	}
	for _, res := range results {
		if err := checkStats(res.Workload+"/"+res.Config, &res.Stats, measure); err != nil {
			e.fail("%v", err)
		}
	}
	return results, nil
}

// ---- sweep_cold -----------------------------------------------------

type sweepCold struct {
	prof   harness.Profile
	out    *sweepOut
	sample *sim.Result
}

func (w *sweepCold) setup(e *env, parent int) error {
	w.prof = e.profile(e.sz.sweepWarm, e.sz.sweepMeasure)
	return nil
}

func (w *sweepCold) teardown(*env) {}

func (w *sweepCold) pass(e *env, p *pass) error {
	dir, err := os.MkdirTemp(e.dir, "cold-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p.timed(func(sp int) { w.out, err = runSweep(e, w.prof, dir, sp) })
	if err != nil {
		return err
	}
	if p.n == 0 {
		if err := checkSweepPhases(e, w.out); err != nil {
			return err
		}
	}
	w.out.wb = nil // the graphs go with it
	e.attempt(sweepPoints)
	if w.out.live != sweepPoints-1 || w.out.storeHits != 0 {
		e.fail("cold sweep ran %d simulations with %d store hits, want %d and 0", w.out.live, w.out.storeHits, sweepPoints-1)
	}
	results, err := checkStore(e, w.out.st, w.prof.Measure)
	if err != nil {
		return err
	}
	if len(results) > 0 {
		w.sample = results[0]
	}
	p.instr = sweepPoints * (w.prof.Warmup + w.prof.Measure)
	p.digest = digestOf(w.out.report)
	return nil
}

func (w *sweepCold) probes(e *env, parent int) error {
	sweepCounters(e, w.out)
	if err := codecProbes(e, parent, w.sample); err != nil {
		return err
	}
	return storeProbes(e, parent, w.sample)
}

func sweepCounters(e *env, out *sweepOut) {
	e.set("harness.points", sweepPoints)
	e.set("harness.live_runs", float64(out.live))
	e.set("harness.memo_hits", float64(out.memoHits))
	e.liveRunS = out.liveS
	if lookups := out.st.Hits() + out.st.Misses(); lookups > 0 {
		e.set("store.hit_ratio", float64(out.st.Hits())/float64(lookups))
	}
}

// ---- sweep_warm -----------------------------------------------------

// sweepWarm serves the sweep from a store that set-up populated by
// running it cold once. Every warm report must equal that cold report
// byte for byte, with every point a store hit and nothing simulated.
type sweepWarm struct {
	prof   harness.Profile
	dir    string
	cold   []byte
	out    *sweepOut
	sample *sim.Result
}

// wakeful: a warm sweep is a few hundred microseconds of work handed to
// -j workers, so a pass is mostly threads waking each other.
func (w *sweepWarm) wakeful() {}

func (w *sweepWarm) setup(e *env, parent int) error {
	w.prof = e.profile(e.sz.sweepWarm, e.sz.sweepMeasure)
	dir, err := os.MkdirTemp(e.dir, "warm-store-")
	if err != nil {
		return err
	}
	w.dir = dir
	out, err := runSweep(e, w.prof, dir, parent)
	if err != nil {
		return err
	}
	w.cold = out.report
	if e.gatherChecked == 0 { // the first set-up of the run
		if err := checkSweepPhases(e, out); err != nil {
			return err
		}
	}
	results, err := checkStore(e, out.st, w.prof.Measure)
	if err != nil {
		return err
	}
	if len(results) > 0 {
		w.sample = results[0]
	}
	return nil
}

func (w *sweepWarm) teardown(*env) {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *sweepWarm) pass(e *env, p *pass) error {
	var err error
	for i := 0; i < e.sz.warmSweepsPerPass && err == nil; i++ {
		p.timed(func(sp int) { w.out, err = runSweep(e, w.prof, w.dir, sp) })
		if err != nil {
			return err
		}
		e.attempt(1)
		switch {
		case !bytes.Equal(w.out.report, w.cold):
			e.fail("warm sweep report differs from the cold report of the same store")
		case w.out.live != 0 || w.out.st.Misses() != 0:
			e.fail("warm sweep ran %d simulations and missed the store %d times", w.out.live, w.out.st.Misses())
		}
	}
	p.digest = digestOf(w.out.report)
	return nil
}

func (w *sweepWarm) probes(e *env, parent int) error {
	sweepCounters(e, w.out)
	if err := codecProbes(e, parent, w.sample); err != nil {
		return err
	}
	if err := storeProbes(e, parent, w.sample); err != nil {
		return err
	}
	return harnessProbes(e, parent, w.prof, w.dir)
}

// ---- probes of the layers the sweeps lean on ------------------------

// medianMicros times fn n times and returns the median in microseconds.
func medianMicros(n int, fn func()) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn()
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(us)
}

const probeReps = 200

// codecProbes times EncodeResult and DecodeResult on one result.
func codecProbes(e *env, parent int, res *sim.Result) error {
	if res == nil {
		return nil
	}
	var data []byte
	var err error
	id := e.tr.begin("sim.codec", parent)
	defer e.tr.end(id)
	e.set("sim.encode_us", medianMicros(probeReps, func() { data, err = sim.EncodeResult(res) }))
	if err != nil {
		return err
	}
	e.set("sim.result_bytes", float64(len(data)))
	e.set("sim.decode_us", medianMicros(probeReps, func() { _, err = sim.DecodeResult(data) }))
	return err
}

// storeProbes times a publish (Acquire miss, commit) and a read
// (Acquire hit) of a result-sized payload in a store of its own.
func storeProbes(e *env, parent int, res *sim.Result) error {
	if res == nil {
		return nil
	}
	payload, err := sim.EncodeResult(res)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.dir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := harness.OpenResultStore(dir)
	if err != nil {
		return err
	}
	id := e.tr.begin("store.probe", parent)
	defer e.tr.end(id)
	key := func(i int) string { return fmt.Sprintf("probe%04d", i) }
	i := 0
	e.set("store.put_us", medianMicros(probeReps, func() {
		_, commit := st.Acquire(key(i))
		if cerr := commit(payload); cerr != nil {
			err = cerr
		}
		i++
	}))
	if err != nil {
		return err
	}
	i = 0
	e.set("store.get_us", medianMicros(probeReps, func() {
		got, commit := st.Acquire(key(i))
		if !bytes.Equal(got, payload) {
			err = fmt.Errorf("store returned %d bytes for a %d-byte payload", len(got), len(payload))
		}
		_ = commit(nil) // release the key; nothing to publish on a hit
		i++
	}))
	return err
}

// harnessProbes times rendering the sweep's largest table and a
// RunSingle that the in-process memo answers.
func harnessProbes(e *env, parent int, prof harness.Profile, storeDir string) error {
	st, err := harness.OpenResultStore(storeDir)
	if err != nil {
		return err
	}
	subset, err := harness.SubsetWorkloads(sweepKernels, sweepGraphs)
	if err != nil {
		return err
	}
	wb := harness.NewWorkbench(prof)
	wb.Parallelism = e.workers
	wb.Store = st
	table, err := wb.Experiment("fig10", subset)
	if err != nil {
		return err
	}
	id := e.tr.begin("harness.probe", parent)
	defer e.tr.end(id)
	var buf bytes.Buffer
	e.set("harness.render_us", medianMicros(probeReps, func() {
		buf.Reset()
		table.Render(&buf)
	}))
	cfg := wb.BaseConfig()
	e.set("harness.memo_hit_us", medianMicros(probeReps, func() { wb.RunSingle(cfg, subset[0]) }))
	return nil
}
