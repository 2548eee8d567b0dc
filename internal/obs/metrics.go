package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the live observability endpoint behind gmsim/gmreport
// -metrics: it tracks sweep progress (planned/done/cached run counts),
// the set of in-flight runs, and the most recent per-run flight-recorder
// snapshots, and serves them over HTTP two ways — Prometheus text
// exposition at /metrics and expvar JSON at /debug/vars. All methods
// are safe for concurrent use; a nil *Metrics is a valid no-op
// receiver, so call sites thread one pointer and never branch.
type Metrics struct {
	mu      sync.Mutex
	started time.Time
	total   int64 // planned live runs
	done    int64 // finished live runs
	cached  int64 // memo-served runs
	stored  int64 // disk-store-served runs
	store   StoreCounters
	// inflight (run label by key) and runs (finished-run summaries by
	// key) are keyed by the run's identity digest, not its label: configs
	// that differ in a field but share a Name — the prefetcher presets,
	// two profiles behind one gmserved registry — are distinct runs.
	inflight map[string]string
	runs     map[string]runMetrics
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

// NewMetrics creates an idle metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		started:  time.Now(),
		inflight: make(map[string]string),
		runs:     make(map[string]runMetrics),
	}
}

// Plan registers n additional upcoming live runs.
func (m *Metrics) Plan(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.total += int64(n)
	m.mu.Unlock()
}

// RunStarted marks the run with identity digest key in flight under
// its readable label.
func (m *Metrics) RunStarted(key, label string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.inflight[key] = label
	m.mu.Unlock()
}

// RunFinished records a live run's outcome; rec may be nil when the
// flight recorder was off.
func (m *Metrics) RunFinished(key, label string, seconds, ipc float64, rec *RecSummary) {
	if m == nil {
		return
	}
	m.mu.Lock()
	delete(m.inflight, key)
	m.done++
	m.runs[key] = runMetrics{label: label, seconds: seconds, ipc: ipc, rec: rec}
	m.mu.Unlock()
}

// RunCached records a memo-served run.
func (m *Metrics) RunCached() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cached++
	m.mu.Unlock()
}

// RunStoreHit records a run served from the disk result store.
func (m *Metrics) RunStoreHit() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.stored++
	m.mu.Unlock()
}

// AttachStore registers the disk result store whose hit/miss/eviction
// counters /metrics exports. A nil receiver or store is a no-op.
func (m *Metrics) AttachStore(s StoreCounters) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.store = s
	m.mu.Unlock()
}

// Counts returns the run-outcome counters (planned and finished live
// runs, memo-served runs, disk-store-served runs) — the handle tests
// use to assert a warm sweep executed zero simulations.
func (m *Metrics) Counts() (planned, finished, cached, stored int64) {
	if m == nil {
		return 0, 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total, m.done, m.cached, m.stored
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
	counter("graphmem_runs_planned_total", "Live simulation runs planned for the sweep.", m.total)
	counter("graphmem_runs_finished_total", "Live simulation runs finished.", m.done)
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

	fmt.Fprintf(b, "# HELP graphmem_runs_in_flight Simulation runs currently executing.\n# TYPE graphmem_runs_in_flight gauge\ngraphmem_runs_in_flight %d\n", len(m.inflight))
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
	inflight := make([]string, 0, len(m.inflight))
	for _, l := range m.inflight {
		inflight = append(inflight, l)
	}
	sort.Strings(inflight)
	out := map[string]any{
		"runs_planned":  m.total,
		"runs_finished": m.done,
		"runs_cached":   m.cached,
		"runs_store":    m.stored,
		"in_flight":     inflight,
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
