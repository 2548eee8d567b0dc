package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphmem/internal/check"
)

// progressWindow is the number of recent live runs the moving-average
// run time is computed over.
const progressWindow = 16

// Metrics is the run ledger: every run a workbench plans, starts,
// finishes or serves without simulating is reported here once, and
// everything that reads runs reads this — the progress line (runs
// done/total, moving-average run time, ETA, runs in flight), the live
// endpoint (Prometheus text at /metrics, expvar JSON at /debug/vars),
// Counts and CheckOutcome. All methods are safe for concurrent use.
//
// The progress line counts every run. The point series — Counts'
// planned and finished, /metrics' in-flight gauge and per-run series —
// count simulation points only: a run started without a name (the
// Fig. 3 profile, which yields no IPC) is on the line but not in them.
//
// Accounting protocol: Plan covers only runs that will actually
// execute, and a key counts once while it is pending, however many
// sweeps plan it. A served run that was not pending self-plans, counting
// toward both done and total, so done/total closes however much of a
// sweep the memo or the store already held, and the ETA covers live
// work only. The ETA divides by the peak run concurrency, so it is
// wall-clock-correct under a worker pool and degrades to the sequential
// estimate at parallelism 1.
//
// Lines go to the out func each call passes (nil counts silently),
// under the ledger's lock, so concurrent lines never interleave and
// their counts never run backwards; out must not call back into the
// ledger.
type Metrics struct {
	mu      sync.Mutex
	now     func() time.Time
	started time.Time
	store   StoreCounters

	// The progress line: every run, served ones included.
	total, done int
	pending     map[string]bool // planned keys not yet finished or served
	// inflight maps each running run's identity digest to its /metrics
	// name ("" for a run that is not a point); peak is its high water.
	inflight map[string]string
	peak     int
	window   [progressWindow]time.Duration
	wn, wi   int

	// The point series, plus every served run by tier.
	planned, finished, cached, stored int64
	// runs holds finished-run summaries by identity digest, not label:
	// configs that differ in a field but share a Name — the prefetcher
	// presets, two profiles behind one gmserved ledger — are distinct.
	runs map[string]runMetrics

	// The differential checker's tally over checked live runs.
	checkRuns, violations int64
	details               []check.Violation // capped per run, concatenated
}

// StoreCounters is the face of a disk result store the metrics endpoint
// exports: cumulative lookup and eviction counts. *store.Store
// implements it.
type StoreCounters interface {
	Hits() int64
	Misses() int64
	Evictions() int64
}

// runMetrics is one finished run's exported state.
type runMetrics struct {
	label   string
	seconds float64
	ipc     float64
	rec     *RecSummary
}

// NewMetrics creates an empty ledger.
func NewMetrics() *Metrics {
	return &Metrics{
		now:      time.Now,
		started:  time.Now(),
		pending:  make(map[string]bool),
		inflight: make(map[string]string),
		runs:     make(map[string]runMetrics),
	}
}

// Plan registers the upcoming live run with identity digest key; point
// says whether it is a simulation point. The harness plans a run at its
// live door, once the memo and the store have both missed and before it
// waits for a pool slot; a sweep starts every run that missed both at
// once, so every plan lands before the first run finishes and ETAs cover
// the whole remaining sweep.
func (m *Metrics) Plan(key string, point bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending[key] {
		return
	}
	m.pending[key] = true
	m.total++
	if point {
		m.planned++
	}
}

// Start marks the run with identity digest key in flight and returns
// its finish func. label names the run on the progress line, name on
// /metrics ("" keeps it out of the point series). finish takes the
// run's detail for the line ("IPC=0.453"), its IPC and flight-recorder
// summary (nil when the recorder was off) for /metrics and its checker
// outcome, and emits the run's line to out.
func (m *Metrics) Start(out func(string), key, label, name string) (finish func(detail string, ipc float64, rec *RecSummary, chk check.Summary)) {
	m.mu.Lock()
	start := m.now()
	m.inflight[key] = name
	m.peak = max(m.peak, len(m.inflight))
	m.mu.Unlock()
	return func(detail string, ipc float64, rec *RecSummary, chk check.Summary) {
		m.mu.Lock()
		defer m.mu.Unlock()
		d := m.now().Sub(start)
		delete(m.inflight, key)
		delete(m.pending, key)
		m.done++
		m.window[m.wi] = d
		m.wi = (m.wi + 1) % progressWindow
		m.wn = min(m.wn+1, progressWindow)
		if name != "" {
			m.finished++
			m.runs[key] = runMetrics{label: name, seconds: d.Seconds(), ipc: ipc, rec: rec}
		}
		if chk.Level != "" {
			m.checkRuns++
			m.violations += chk.Violations
			m.details = append(m.details, chk.Details...)
		}
		if out != nil {
			out(m.lineLocked(label, detail, "", d))
		}
	}
}

// Abort closes the entry of a planned run that ended without a
// result — its preparation or simulation panicked — so the progress
// line still closes and the in-flight gauge drops it. The run counts as
// done, never as finished: it has no point to report.
func (m *Metrics) Abort(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.inflight, key)
	if m.pending[key] {
		delete(m.pending, key)
		m.done++
	}
}

// Served records the run with identity digest key as answered without
// simulating — by the memo or another caller's fill, or fromStore by
// the disk store — and emits its "(cached)" line to out. It leaves the
// run-time average alone.
func (m *Metrics) Served(out func(string), key, label, detail string, fromStore bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.pending[key] {
		m.total++
	}
	delete(m.pending, key)
	m.done++
	tag := " (cached)"
	if fromStore {
		m.stored++
		tag = " (store) (cached)"
	} else {
		m.cached++
	}
	if out != nil {
		out(m.lineLocked(label, detail, tag, 0))
	}
}

// Log emits a narration line (a graph build, a failed store write) to
// out, under the ledger's lock like every run line.
func (m *Metrics) Log(out func(string), msg string) {
	if out == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out(msg)
}

// AttachStore registers the disk result store whose hit/miss/eviction
// counters the endpoint exports.
func (m *Metrics) AttachStore(s StoreCounters) {
	m.mu.Lock()
	m.store = s
	m.mu.Unlock()
}

// Counts returns the run-outcome counters (planned and finished live
// points, memo-served runs, disk-store-served runs) — the handle tests
// use to assert a warm sweep executed zero simulations.
func (m *Metrics) Counts() (planned, finished, cached, stored int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planned, m.finished, m.cached, m.stored
}

// Snapshot reads the progress line: runs done and to do, the ETA (zero
// until a live run finished or when no runs remain), and the most runs
// ever in flight at once.
func (m *Metrics) Snapshot() (done, total int, eta time.Duration, peak int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.done, m.total, m.etaLocked(), m.peak
}

// CheckOutcome reports the differential checker's tally: how many live
// runs were checked, the total violation count, and the retained
// per-violation details (capped per run by internal/check).
func (m *Metrics) CheckOutcome() (runs, violations int64, details []check.Violation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkRuns, m.violations, append([]check.Violation(nil), m.details...)
}

func (m *Metrics) avgLocked() time.Duration {
	if m.wn == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range m.window[:m.wn] {
		sum += d
	}
	return sum / time.Duration(m.wn)
}

// etaLocked estimates the remaining wall clock: remaining runs times
// the per-run moving average, divided by the peak run concurrency (the
// worker-pool width once the pool has filled).
func (m *Metrics) etaLocked() time.Duration {
	avg, remaining := m.avgLocked(), m.total-m.done
	if avg <= 0 || remaining <= 0 {
		// An over-counted sweep must never surface a negative ETA.
		return 0
	}
	return avg * time.Duration(remaining) / time.Duration(max(m.peak, 1))
}

// lineLocked formats one run's line: a served run's ends in tag, a live
// run's in its timings. Callers build it only for a sink: a sink-less
// ledger just counts.
func (m *Metrics) lineLocked(label, detail, tag string, d time.Duration) string {
	line := make([]byte, 0, 128)
	line = append(line, '[')
	var num [20]byte
	done := strconv.AppendInt(num[:0], int64(m.done), 10)
	for range 3 - len(done) {
		line = append(line, ' ')
	}
	line = append(append(line, done...), '/')
	if m.total > 0 {
		line = strconv.AppendInt(line, int64(m.total), 10)
	} else {
		line = append(line, '?')
	}
	line = append(append(line, "] "...), label...)
	if detail != "" {
		line = append(append(line, ' '), detail...)
	}
	if tag != "" {
		return string(append(line, tag...))
	}
	line = append(append(line, " | "...), fmtDuration(d)...)
	if avg := m.avgLocked(); avg > 0 {
		line = append(append(line, " | avg "...), fmtDuration(avg)...)
		// The ETA is hidden until two live runs have finished: a
		// single-sample moving average is noise, and flashing a wild
		// first estimate costs more trust than showing nothing.
		if eta := m.etaLocked(); eta > 0 && m.wn >= 2 {
			line = append(append(line, " | eta "...), fmtDuration(eta)...)
		}
	}
	if running := len(m.inflight); running > 0 {
		line = append(strconv.AppendInt(append(line, " | "...), int64(running), 10), " in flight"...)
	}
	return string(line)
}

// fmtDuration renders a duration at human sweep granularity.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Truncate(time.Second).String()
	case d >= time.Second:
		return d.Truncate(100 * time.Millisecond).String()
	default:
		return d.Truncate(time.Millisecond).String()
	}
}

// pointsInFlightLocked returns the /metrics names of the running points,
// sorted.
func (m *Metrics) pointsInFlightLocked() []string {
	names := make([]string, 0, len(m.inflight))
	for _, name := range m.inflight {
		if name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// promEscape escapes a Prometheus label value.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) WritePrometheus(b *strings.Builder) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("graphmem_runs_planned_total", "Live simulation runs planned for the sweep.", m.planned)
	counter("graphmem_runs_finished_total", "Live simulation runs finished.", m.finished)
	counter("graphmem_runs_cached_total", "Runs served from the sweep memo cache.", m.cached)
	counter("graphmem_runs_store_total", "Runs served from the disk result store.", m.stored)

	if m.store != nil {
		hits, misses := m.store.Hits(), m.store.Misses()
		counter("graphmem_store_hits_total", "Disk result store lookups served from disk.", hits)
		counter("graphmem_store_misses_total", "Disk result store lookups that ran live.", misses)
		counter("graphmem_store_evictions_total", "Disk result store entries evicted by the size cap or GC.", m.store.Evictions())
		ratio := 0.0
		if hits+misses > 0 {
			ratio = float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(b, "# HELP graphmem_store_hit_ratio Disk result store hit ratio since start.\n# TYPE graphmem_store_hit_ratio gauge\ngraphmem_store_hit_ratio %g\n", ratio)
	}

	fmt.Fprintf(b, "# HELP graphmem_runs_in_flight Simulation runs currently executing.\n# TYPE graphmem_runs_in_flight gauge\ngraphmem_runs_in_flight %d\n", len(m.pointsInFlightLocked()))
	fmt.Fprintf(b, "# HELP graphmem_uptime_seconds Seconds since the metrics registry started.\n# TYPE graphmem_uptime_seconds gauge\ngraphmem_uptime_seconds %g\n", time.Since(m.started).Seconds())

	// One line per finished run, ordered by label then digest; every
	// per-run series carries both as run="…",key="…".
	keys := make([]string, 0, len(m.runs))
	for k := range m.runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		la, lb := m.runs[keys[a]].label, m.runs[keys[b]].label
		return la < lb || la == lb && keys[a] < keys[b]
	})
	id := func(k string) string {
		return fmt.Sprintf("run=%q,key=%q", promEscape(m.runs[k].label), promEscape(k))
	}

	fmt.Fprintf(b, "# HELP graphmem_run_seconds Wall-clock seconds of the finished run.\n# TYPE graphmem_run_seconds gauge\n")
	for _, k := range keys {
		fmt.Fprintf(b, "graphmem_run_seconds{%s} %g\n", id(k), m.runs[k].seconds)
	}
	fmt.Fprintf(b, "# HELP graphmem_run_ipc Measured IPC of the finished run.\n# TYPE graphmem_run_ipc gauge\n")
	for _, k := range keys {
		fmt.Fprintf(b, "graphmem_run_ipc{%s} %g\n", id(k), m.runs[k].ipc)
	}

	// Flight-recorder snapshots, when runs carried one.
	fmt.Fprintf(b, "# HELP graphmem_run_served_total Demand loads served, by level.\n# TYPE graphmem_run_served_total counter\n")
	for _, k := range keys {
		rec := m.runs[k].rec
		if rec == nil {
			continue
		}
		for _, lv := range rec.Levels {
			fmt.Fprintf(b, "graphmem_run_served_total{%s,level=%q} %d\n", id(k), promEscape(lv.Level), lv.Served)
		}
	}
	fmt.Fprintf(b, "# HELP graphmem_run_load_latency_cycles Load-to-use latency percentiles in cycles.\n# TYPE graphmem_run_load_latency_cycles gauge\n")
	for _, k := range keys {
		rec := m.runs[k].rec
		if rec == nil {
			continue
		}
		h := rec.LoadToUse
		for _, q := range []struct {
			tag string
			v   int64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			fmt.Fprintf(b, "graphmem_run_load_latency_cycles{%s,quantile=%q} %d\n", id(k), q.tag, q.v)
		}
	}
}

// snapshot returns the expvar-facing state as a plain map.
func (m *Metrics) snapshot() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]any{
		"runs_planned":  m.planned,
		"runs_finished": m.finished,
		"runs_cached":   m.cached,
		"runs_store":    m.stored,
		"in_flight":     m.pointsInFlightLocked(),
	}
	if m.store != nil {
		out["store_hits"] = m.store.Hits()
		out["store_misses"] = m.store.Misses()
		out["store_evictions"] = m.store.Evictions()
	}
	return out
}

// activeMetrics is the registry expvar reads from: expvar.Publish is
// global and forever, so the package publishes one Func once and swaps
// the live *Metrics under it (tests create many registries).
var (
	activeMetrics  atomic.Pointer[Metrics]
	publishMetrics sync.Once
)

// Handler returns the endpoint mux: Prometheus text at /metrics,
// expvar JSON at /debug/vars, and a plain-text index at /.
func (m *Metrics) Handler() http.Handler {
	activeMetrics.Store(m)
	publishMetrics.Do(func() {
		expvar.Publish("graphmem", expvar.Func(func() any {
			if cur := activeMetrics.Load(); cur != nil {
				return cur.snapshot()
			}
			return nil
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		m.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "graphmem metrics endpoint\n\n/metrics      Prometheus text exposition\n/debug/vars   expvar JSON\n")
	})
	return mux
}

// Serve binds addr (":6060", "127.0.0.1:0", ...) and serves the
// endpoint in a background goroutine, returning the bound address. The
// listener lives until the process exits — the endpoint is a window
// into a sweep, not a managed service.
func (m *Metrics) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: metrics listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: m.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
