package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphmem/internal/harness"
	"graphmem/internal/sim"
)

// ---- the gmserved child ---------------------------------------------

// buildServed compiles cmd/gmserved into dir.
func buildServed(dir string) (string, error) {
	bin := filepath.Join(dir, "gmserved")
	cmd := exec.Command("go", "build", "-o", bin, "graphmem/cmd/gmserved")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build gmserved: %v\n%s", err, out)
	}
	return bin, nil
}

// served is a running gmserved.
type served struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:port"
	done chan struct{}
}

// startServed spawns the binary, confined to cpus when there are any, on
// a port of the kernel's choosing over the store, reads the address from
// the line it prints to stderr, and waits until /healthz answers.
func startServed(bin, storeDir string, workers int, cpus []int) (*served, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir, "-j", fmt.Sprint(workers), "-q")
	dieWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := startOn(cmd, cpus); err != nil {
		return nil, err
	}
	s := &served{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
				host, _, _ := strings.Cut(rest, "/")
				select {
				case addr <- host:
				default:
				}
			}
		}
	}()
	select {
	case host := <-addr:
		s.base = "http://" + host
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("gmserved exited before announcing its address")
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("gmserved did not announce its address within 20 s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("gmserved /healthz not ok within 10 s: %v", err)
		}
	}
}

// stop kills the child and waits until it and its stderr reader ended.
func (s *served) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
	_ = s.cmd.Wait() // reaps; "signal: killed" is the expected outcome
}

// ---- serve_warm ------------------------------------------------------

// serveWarm drives gmserved over a store that set-up populated, with a
// closed loop of clients: each sends its next operation when the reply
// to the last one is complete. An operation is POST /api/run, following
// the job's event stream to its end, and GET of the result; every
// sweepEvery-th operation is a POST /api/sweep (tab1,fig10) instead.
//
// The server and the load generator do not share cores: the clients are
// half the workers and have that many cores to themselves, the server has
// the others (serveLayout), so that what is timed is the server and not
// how the scheduler interleaves it with its own load.
type serveWarm struct {
	bin      string
	storeDir string
	srv      *served
	startS   float64
	client   *http.Client

	clients    int   // closed-loop clients
	serverCPUs []int // the server's share of them; nil: not confined
	loadCPUs   []int // the load generator's share while the passes run
	procs      int   // GOMAXPROCS to restore after the passes, 0: unchanged
	confined   bool  // this process is on loadCPUs

	points   []point
	expected map[point][]byte // encoded in-process result per point
	tables   []sweepTable     // in-process rendering of the sweep
	order    []int            // request order drawn from the seed
	next     atomic.Int64     // operations issued since start
	touched  []atomic.Bool    // per point: requested since the server started

	mu      sync.Mutex
	bodies  map[point][]byte // first verified response body per point
	lat     latencies
	errors  atomic.Int64
	passOps int
}

// latencies are client-side durations in milliseconds.
type latencies struct {
	op, post, events, result, firstTouch, sweep []float64
}

func (l *latencies) merge(o *latencies) {
	l.op = append(l.op, o.op...)
	l.post = append(l.post, o.post...)
	l.events = append(l.events, o.events...)
	l.result = append(l.result, o.result...)
	l.firstTouch = append(l.firstTouch, o.firstTouch...)
	l.sweep = append(l.sweep, o.sweep...)
}

type sweepTable struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

var (
	serveSweepExperiments = []string{"tab1", "fig10"}
	serveSweepKernels     = "pr,cc"
	serveSweepGraphs      = "urand,twitter"
)

// serveLayout splits the cores between the server and the load
// generator: half the workers become clients, each with a core, and the
// server has the rest. With a single core the two share it, unconfined.
func serveLayout(cpus []int, workers int) (clients int, server, load []int) {
	clients = max(1, workers/2)
	if len(cpus) < 2 {
		return clients, nil, nil
	}
	n := min(clients, len(cpus)-1)
	return clients, cpus[:len(cpus)-n], cpus[len(cpus)-n:]
}

func servePoints() []point {
	var pts []point
	for _, k := range []string{"pr", "bfs", "cc", "sssp"} {
		for _, g := range []string{"urand", "twitter"} {
			for _, c := range []string{"baseline", "sdclp"} {
				pts = append(pts, point{k, g, c})
			}
		}
	}
	return pts
}

func (w *serveWarm) build(e *env) error {
	dir, err := os.MkdirTemp(e.dir, "bin-")
	if err != nil {
		return err
	}
	w.bin, err = buildServed(dir)
	return err
}

func (w *serveWarm) setup(e *env, parent int) error {
	var err error
	if w.storeDir, err = os.MkdirTemp(e.dir, "serve-store-"); err != nil {
		return err
	}
	st, err := harness.OpenResultStore(w.storeDir)
	if err != nil {
		return err
	}
	prof := e.profile(e.sz.serveWarm, e.sz.serveMeasure)
	wb := harness.NewWorkbench(prof)
	wb.Parallelism = e.workers
	wb.Store = st
	e.tr.scope(parent)

	// The 16 points, simulated in process: the store's content and the
	// reference every served body is compared with.
	w.points = servePoints()
	w.expected = make(map[point][]byte, len(w.points))
	results := make([]*sim.Result, len(w.points))
	cfgs := make([]sim.Config, len(w.points))
	for i, pt := range w.points {
		if cfgs[i], err = harness.ConfigByName(wb.BaseConfig(), pt.config); err != nil {
			return err
		}
	}
	sp := e.tr.begin("harness.populate", parent)
	// Graph.TransposeCached is not safe for concurrent first use, and two
	// pr points on one graph would race to fill it: fill it beforehand.
	for _, g := range []string{"urand", "twitter"} {
		wb.Graph(g).TransposeCached()
	}
	var wg sync.WaitGroup
	for i, pt := range w.points {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = wb.RunSingle(cfgs[i], pt.id())
		}()
	}
	wg.Wait()
	for i, pt := range w.points {
		if err := checkResult(results[i], cfgs[i], pt); err != nil {
			return fmt.Errorf("populating the store: %w", err)
		}
		if w.expected[pt], err = sim.EncodeResult(results[i]); err != nil {
			return err
		}
	}
	subset, err := harness.SubsetWorkloads(serveSweepKernels, serveSweepGraphs)
	if err != nil {
		return err
	}
	w.tables = w.tables[:0]
	for _, id := range serveSweepExperiments {
		t, err := wb.Experiment(id, subset)
		if err != nil {
			return err
		}
		w.tables = append(w.tables, sweepTable{ID: t.ID, Text: t.String()})
	}
	e.tr.end(sp)

	rng := rand.New(rand.NewSource(int64(e.seed)))
	w.order = make([]int, 4096)
	for i := range w.order {
		w.order[i] = rng.Intn(len(w.points))
	}
	w.touched = make([]atomic.Bool, len(w.points))
	w.bodies = make(map[point][]byte, len(w.points))
	w.next.Store(0)
	w.lat = latencies{}

	w.clients, w.serverCPUs, w.loadCPUs = serveLayout(e.cpus, e.workers)
	t0 := time.Now()
	sp = e.tr.begin("gmserved.start", parent)
	w.srv, err = startServed(w.bin, w.storeDir, e.workers, w.serverCPUs)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	e.onExit(w.srv.stop)
	w.startS = time.Since(t0).Seconds()
	// The program under test is the child: its CPU time is the run's.
	pid := w.srv.cmd.Process.Pid
	e.cpuClock = func() time.Duration { return procCPU(pid) }
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients},
		Timeout:   60 * time.Second,
	}
	w.confine(e)
	return nil
}

// wakeful: an operation is three requests and each request two wake-ups.
func (w *serveWarm) wakeful() {}

// confine, the last step of set-up, moves the load generator onto its own
// cores with as many Ps as it has clients; release, in teardown, undoes it.
// Best effort: if the kernel refuses, that is logged and the passes run
// unconfined.
func (w *serveWarm) confine(e *env) {
	e.onExit(func() { w.release(e.cpus) })
	if len(w.loadCPUs) == 0 {
		return
	}
	if err := confineSelf(w.loadCPUs); err != nil {
		fmt.Fprintf(e.log, "serve_warm: load generator not confined to cores %v: %v\n", w.loadCPUs, err)
		return
	}
	w.confined = true
	w.procs = runtime.GOMAXPROCS(len(w.loadCPUs))
}

func (w *serveWarm) release(cpus []int) {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
		w.procs = 0
	}
	if w.confined {
		_ = confineSelf(cpus) // the mask it had before; nothing to do if refused
		w.confined = false
	}
}

func (w *serveWarm) teardown(e *env) {
	e.cpuClock = selfCPU
	w.release(e.cpus)
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.storeDir != "" {
		os.RemoveAll(w.storeDir)
		w.storeDir = ""
	}
}

func (w *serveWarm) pass(e *env, p *pass) error {
	alloc0, err := w.serverTotalAlloc()
	if err != nil {
		return err
	}
	ops := e.sz.serveOpsPerPass
	first := w.next.Add(int64(ops)) - int64(ops)
	var issued atomic.Int64
	perClient := make([]latencies, w.clients)
	p.timed(func(sp int) {
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := issued.Add(1) - 1
					if i >= int64(ops) {
						return
					}
					if err := w.operation(e, sp, c+1, first+i, &perClient[c]); err != nil {
						w.errors.Add(1)
						e.fail("operation %d: %v", first+i, err)
					}
				}
			}()
		}
		wg.Wait()
	})
	e.attempt(ops)
	w.passOps += ops
	for c := range perClient {
		w.lat.merge(&perClient[c])
	}
	alloc1, err := w.serverTotalAlloc()
	if err != nil {
		return err
	}
	p.allocMB = float64(alloc1-alloc0) / (1 << 20)
	// What was served is checked body by body against the in-process
	// results; the digest is over those references and the sweep tables.
	parts := make([][]byte, 0, len(w.points)+len(w.tables))
	for _, pt := range w.points {
		parts = append(parts, w.expected[pt])
	}
	for _, t := range w.tables {
		parts = append(parts, []byte(t.Text))
	}
	p.digest = digestOf(parts...)
	// The server never prunes its job map, so its RSS grows with the
	// operations served and a faster host would report a larger peak:
	// take the peak after a fixed number of operations.
	if w.passOps <= rssAfterOps {
		if _, peak, err := procRSS(w.srv.cmd.Process.Pid); err == nil {
			e.serverPeakMB = peak
		}
	}
	return nil
}

// rssAfterOps is the operation count at which serve_warm reads the
// server's peak RSS (or the end of the run, if that comes first).
const rssAfterOps = 10_000

// serverTotalAlloc reads the child's cumulative allocation from the
// runtime memstats its /debug/vars publishes.
func (w *serveWarm) serverTotalAlloc() (uint64, error) {
	var vars struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if _, err := w.getJSON("/debug/vars", http.StatusOK, &vars); err != nil {
		return 0, err
	}
	return vars.Memstats.TotalAlloc, nil
}

// getJSON fetches path, requires the status, and decodes the body into
// out when out is not nil. It returns the raw body.
func (w *serveWarm) getJSON(path string, status int, out any) ([]byte, error) {
	resp, err := w.client.Get(w.srv.base + path)
	if err != nil {
		return nil, err
	}
	return readJSON(resp, path, status, out)
}

func (w *serveWarm) postJSON(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := w.client.Post(w.srv.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	_, err = readJSON(resp, path, http.StatusAccepted, out)
	return err
}

func readJSON(resp *http.Response, path string, status int, out any) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != status {
		return nil, fmt.Errorf("%s: status %d, want %d: %s", path, resp.StatusCode, status, bytes.TrimSpace(body))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return body, nil
}

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// operation performs operation number n and checks what came back.
func (w *serveWarm) operation(e *env, parent, lane int, n int64, lat *latencies) error {
	sz := e.sz
	sweep := n%int64(sz.sweepEvery) == int64(sz.sweepEvery)-1
	op := e.tr.beginLane("gmserved.op", parent, lane)
	defer e.tr.end(op)
	t0 := time.Now()

	var job jobStatus
	var pt point
	var firstTouch bool
	var err error
	if sweep {
		err = w.postJSON("/api/sweep", map[string]any{
			"profile": "bench", "experiments": serveSweepExperiments,
			"kernels": serveSweepKernels, "graphs": serveSweepGraphs,
			"warmup": sz.serveWarm, "measure": sz.serveMeasure,
		}, &job)
	} else {
		idx := w.order[n%int64(len(w.order))]
		pt = w.points[idx]
		firstTouch = !w.touched[idx].Swap(true)
		sp := e.tr.beginLane("gmserved.post", op, lane)
		err = w.postJSON("/api/run", map[string]any{
			"profile": "bench", "kernel": pt.kernel, "graph": pt.graph, "config": pt.config,
			"warmup": sz.serveWarm, "measure": sz.serveMeasure,
		}, &job)
		e.tr.end(sp)
	}
	if err != nil {
		return err
	}
	t1 := time.Now()

	sp := e.tr.beginLane("gmserved.events", op, lane)
	done, err := w.follow(job.ID)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("job %s: event stream ended without its done event", job.ID)
	}
	t2 := time.Now()

	sp = e.tr.beginLane("gmserved.result", op, lane)
	body, err := w.getJSON("/api/jobs/"+job.ID+"/result", http.StatusOK, nil)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	t3 := time.Now()

	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	lat.op = append(lat.op, ms(t0, t3))
	if sweep {
		lat.sweep = append(lat.sweep, ms(t0, t3))
		return w.checkSweepBody(body)
	}
	lat.post = append(lat.post, ms(t0, t1))
	lat.events = append(lat.events, ms(t1, t2))
	lat.result = append(lat.result, ms(t2, t3))
	if firstTouch {
		lat.firstTouch = append(lat.firstTouch, ms(t0, t3))
	}
	return w.checkRunBody(pt, body)
}

// follow reads a job's event stream to its end — the stream closing is
// the completion signal — and reports whether it carried the job's
// "done" event. (Progress lines of other jobs on the same workbench may
// still trail it.)
func (w *serveWarm) follow(jobID string) (done bool, err error) {
	resp, err := w.client.Get(w.srv.base + "/api/jobs/" + jobID + "/events")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events of %s: status %d", jobID, resp.StatusCode)
	}
	want := "job " + jobID + " done"
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			var ev struct{ Event string }
			if err := json.Unmarshal(line, &ev); err != nil {
				return false, fmt.Errorf("events of %s: %q: %w", jobID, line, err)
			}
			done = done || ev.Event == want
		}
	}
	return done, sc.Err()
}

// checkRunBody requires that the body is the run that was asked for and
// that its result equals the in-process result of that point. The first
// body of a point is decoded and compared field by field through the
// result codec; later ones must repeat those verified bytes.
func (w *serveWarm) checkRunBody(pt point, body []byte) error {
	w.mu.Lock()
	verified, ok := w.bodies[pt]
	w.mu.Unlock()
	if ok {
		if !bytes.Equal(body, verified) {
			return fmt.Errorf("%s: served body differs from the verified body of the same point", pt)
		}
		return nil
	}
	var rr struct {
		Key    string
		IPC    float64
		Result *sim.Result
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("%s: %w", pt, err)
	}
	if rr.Result == nil || rr.Result.Workload != pt.id().String() || !strings.Contains(rr.Key, pt.id().String()) {
		return fmt.Errorf("%s: served result is for key %q", pt, rr.Key)
	}
	got, err := sim.EncodeResult(rr.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, w.expected[pt]) {
		return fmt.Errorf("%s: served result differs from the in-process result", pt)
	}
	w.mu.Lock()
	w.bodies[pt] = body
	w.mu.Unlock()
	return nil
}

func (w *serveWarm) checkSweepBody(body []byte) error {
	var sr struct{ Tables []sweepTable }
	if err := json.Unmarshal(body, &sr); err != nil {
		return err
	}
	if len(sr.Tables) != len(w.tables) {
		return fmt.Errorf("sweep served %d tables, want %d", len(sr.Tables), len(w.tables))
	}
	for i, t := range sr.Tables {
		if t != w.tables[i] {
			return fmt.Errorf("served table %s differs from the in-process rendering", t.ID)
		}
	}
	return nil
}

func (w *serveWarm) probes(e *env, parent int) error {
	e.set("gmserved.start_s", w.startS)
	e.set("gmserved.lat_p50_ms", median(w.lat.op))
	if p99, err := percentile(w.lat.op, 99); err == nil {
		e.set("gmserved.lat_p99_ms", p99)
	} else {
		fmt.Fprintf(e.log, "serve_warm: gmserved.lat_p99_ms not reported: %v\n", err)
	}
	var total float64
	for _, ms := range w.lat.op {
		total += ms
	}
	if total > 0 {
		// Closed loop: the clients are never idle, so operations per
		// second is clients over mean latency.
		e.set("gmserved.req_per_s", float64(len(w.lat.op))*float64(w.clients)*1e3/total)
	}
	e.set("gmserved.post_ms_p50", median(w.lat.post))
	e.set("gmserved.events_ms_p50", median(w.lat.events))
	e.set("gmserved.result_ms_p50", median(w.lat.result))
	e.set("gmserved.first_touch_ms_p50", median(w.lat.firstTouch))
	e.set("gmserved.sweep_ms_p50", median(w.lat.sweep))
	e.set("gmserved.errors", float64(w.errors.Load()))
	if rss, _, err := procRSS(w.srv.cmd.Process.Pid); err == nil {
		// The job map is never pruned: this grows with the operations served.
		e.set("gmserved.rss_mb_end", rss)
	}
	var stats struct {
		Hits, Misses int64
		Entries      int
		Bytes        int64
	}
	if _, err := w.getJSON("/api/store", http.StatusOK, &stats); err != nil {
		return err
	}
	e.set("store.entries", float64(stats.Entries))
	e.set("store.bytes", float64(stats.Bytes))
	if lookups := stats.Hits + stats.Misses; lookups > 0 {
		e.set("store.hit_ratio", float64(stats.Hits)/float64(lookups))
	}
	return nil
}
