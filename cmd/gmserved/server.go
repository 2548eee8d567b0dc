package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"graphmem/internal/harness"
	"graphmem/internal/sim"
	"graphmem/internal/store"
)

// server is the sweep service: a result store fronted by per-profile
// workbenches, so every client shares one single-flight memo
// (in-flight and in-process dedup) and one disk cache (cross-restart
// and cross-process dedup via the store). Jobs run asynchronously;
// clients poll or stream per-job progress events.
type server struct {
	// opts are the service's flags, the defaults every request body is
	// decoded over; tmpl is the workbench they describe, from which each
	// bench inherits its knobs, store and ledger: one ledger per service.
	opts harness.RunOptions
	tmpl *harness.Workbench
	logf func(format string, args ...any)
	// jobTTL is how long a finished job stays listed and fetchable, on
	// the clock now (fields so tests can move them).
	jobTTL time.Duration
	now    func() time.Time

	mu      sync.Mutex
	nextJob int
	jobs    map[string]*job
	// finished lists the terminal jobs in completion order, oldest
	// first: newJob drops the expired ones from its front.
	finished []finishedJob
	benches  map[benchKey]*bench
	// runs maps every run request that once resolved to what it resolved
	// to. Failures are not kept, so a bad request is refused afresh.
	runs map[runRequest]*resolvedRun
}

type finishedJob struct {
	id string
	at time.Time
}

// resolvedRun is what a run request names: its bench, its spec, and the
// rest of its "job <id> queued" event.
type resolvedRun struct {
	b      *bench
	spec   harness.RunSpec
	queued string

	mu   sync.Mutex
	body []byte // the encoded result, once a job of this run finished
}

// benchKey names a shared workbench by what its profile resolved to, so
// an override equal to the profile's own window shares its bench.
type benchKey struct {
	profile         string
	warmup, measure int64
}

// bench is one shared workbench: every job targeting the same
// (profile, window override) triple runs on it, so their overlapping
// points dedupe against both the memo and each other's in-flight runs.
type bench struct {
	wb *harness.Workbench

	mu     sync.Mutex
	active map[*job]bool
}

// job is one submitted unit of work with an append-only event log that
// progress streams replay and follow.
type job struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "run" or "sweep"
	n    int    // submission number; IDs do not sort past j9999

	mu       sync.Mutex
	state    string // "queued", "running", "done", "error"
	errMsg   string
	events   []string
	notify   chan struct{} // closed and replaced on every append
	body     []byte        // the encoded result, once done
	created  time.Time
	finished time.Time
}

// jobTTL is how long a finished job stays fetchable.
const jobTTL = 15 * time.Minute

func newServer(opts harness.RunOptions, tmpl *harness.Workbench, logf func(string, ...any)) *server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &server{
		opts:    opts,
		tmpl:    tmpl,
		logf:    logf,
		jobTTL:  jobTTL,
		now:     time.Now,
		jobs:    make(map[string]*job),
		benches: make(map[benchKey]*bench),
		runs:    make(map[runRequest]*resolvedRun),
	}
}

// bench returns (creating on first use) the shared workbench for the
// request's profile and windows. Overridden windows key a distinct
// bench: they change every run key, so sharing a workbench would only
// pollute its memo. A bench whose modes do not compose on its base
// machine (every config a request can name derives from it) is refused
// with Config.Validate's reason.
func (s *server) bench(o harness.RunOptions) (*bench, error) {
	profile, err := o.ScaleProfile()
	if err != nil {
		return nil, err
	}
	key := benchKey{profile.Name, profile.Warmup, profile.Measure}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.benches[key]; ok {
		return b, nil
	}
	b := &bench{wb: s.tmpl.WithProfile(profile), active: make(map[*job]bool)}
	if _, err := b.wb.Configure(profile.BaseConfig(1)); err != nil {
		return nil, err
	}
	// Progress lines fan out to every job currently running on this
	// bench: concurrent sweeps sharing a bench see each other's run
	// lines, which is exactly the shared-cache story the service tells.
	// Their [done/total] counts the whole service's runs, as /metrics
	// does: every bench reports to the one ledger.
	b.wb.Progress = func(msg string) {
		b.mu.Lock()
		jobs := make([]*job, 0, len(b.active))
		for j := range b.active {
			jobs = append(jobs, j)
		}
		b.mu.Unlock()
		for _, j := range jobs {
			j.append(msg)
		}
	}
	s.benches[key] = b
	return b, nil
}

// newJob registers a queued job, first dropping the jobs that finished
// more than jobTTL ago.
func (s *server) newJob(kind string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	for len(s.finished) > 0 && now.Sub(s.finished[0].at) > s.jobTTL {
		delete(s.jobs, s.finished[0].id)
		s.finished[0] = finishedJob{}
		s.finished = s.finished[1:]
	}
	s.nextJob++
	j := &job{
		ID:      fmt.Sprintf("j%04d", s.nextJob),
		Kind:    kind,
		n:       s.nextJob,
		state:   "queued",
		notify:  make(chan struct{}),
		created: now,
	}
	s.jobs[j.ID] = j
	return j
}

// start runs fn asynchronously on b, bracketing it with job lifecycle
// events and converting panics (simulator faults) into
// a terminal error state instead of killing the service.
func (s *server) start(j *job, b *bench, fn func() ([]byte, error)) {
	go func() {
		j.setState("running")
		j.append("job " + j.ID + " running")
		b.mu.Lock()
		b.active[j] = true
		b.mu.Unlock()
		defer func() {
			b.mu.Lock()
			delete(b.active, j)
			b.mu.Unlock()
			if p := recover(); p != nil {
				s.logf("job %s panicked: %v", j.ID, p)
				s.finish(j, nil, fmt.Errorf("panic: %v", p))
			}
		}()
		body, err := fn()
		if err != nil {
			s.logf("job %s failed: %v", j.ID, err)
			s.finish(j, nil, err)
			return
		}
		s.finish(j, body, nil)
		s.logf("job %s done", j.ID)
	}()
}

// finish moves j to its terminal state — done with body, or error with
// err — and queues it for expiry.
func (s *server) finish(j *job, body []byte, err error) {
	s.mu.Lock()
	at := s.now()
	s.finished = append(s.finished, finishedJob{j.ID, at})
	s.mu.Unlock()

	j.mu.Lock()
	j.finished = at
	if err != nil {
		j.state, j.errMsg = "error", err.Error()
		j.events = append(j.events, "job "+j.ID+" error: "+j.errMsg)
	} else {
		j.state, j.body = "done", body
		j.events = append(j.events, "job "+j.ID+" done")
	}
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

func (j *job) append(msg string) {
	j.mu.Lock()
	j.events = append(j.events, msg)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// status is the wire shape of GET /api/jobs[/{id}].
type status struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Events   int    `json:"events"`
	Created  string `json:"created"`
	Finished string `json:"finished,omitempty"`
}

func (j *job) status() status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := status{
		ID: j.ID, Kind: j.Kind, State: j.state, Error: j.errMsg,
		Events:  len(j.events),
		Created: j.created.UTC().Format(time.RFC3339),
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339)
	}
	return st
}

// runRequest is one simulation point (POST /api/run): the shared run
// options' profile and windows plus the point.
type runRequest struct {
	harness.RunOptions
	Kernel string `json:"kernel"`
	Graph  string `json:"graph"`
	Config string `json:"config"`
}

// sweepRequest is a whole figure sweep (POST /api/sweep).
type sweepRequest struct {
	harness.RunOptions
	Experiments []string `json:"experiments"`
	Kernels     string   `json:"kernels,omitempty"`
	Graphs      string   `json:"graphs,omitempty"`
}

// maxBody bounds a request body; the largest legitimate one (a sweep
// naming every experiment) is well under a kilobyte.
const maxBody = 1 << 20

// decodeBody reads one JSON object of the request's shape into req —
// pre-filled with the service's defaults — refusing oversized bodies,
// unknown fields and trailing data.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// runResult is the wire shape of a completed single point.
type runResult struct {
	Key    string      `json:"key"`
	IPC    float64     `json:"ipc"`
	Result *sim.Result `json:"result"`
}

// sweepResult is the wire shape of a completed sweep: each experiment's
// rendered table, byte-identical to gmreport's output for the same
// request.
type sweepResult struct {
	Tables []sweepTable `json:"tables"`
}

type sweepTable struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// encode renders v as every JSON body the service answers with:
// two-space indented, newline-terminated.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// writeJSON answers with v encoded; a v that does not encode leaves the
// body empty.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, _ := encode(v)
	writeBody(w, code, body)
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	req := runRequest{RunOptions: s.opts}
	if err := decodeBody(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	run, err := s.resolveRun(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := s.newJob("run")
	j.append("job " + j.ID + " queued" + run.queued)
	s.start(j, run.b, run.result)
	writeJSON(w, http.StatusAccepted, j.status())
}

// result runs the point — a memo hit after its first job, which still
// reports its "(cached)" progress line — and returns its encoded body.
// The memo keeps the result for the life of the process, so the body
// is encoded once.
func (r *resolvedRun) result() ([]byte, error) {
	res := r.b.wb.Run(r.spec)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.body == nil {
		body, err := encode(&runResult{Key: r.spec.Key(), IPC: res.IPC(), Result: res})
		if err != nil {
			return nil, err
		}
		r.body = body
	}
	return r.body, nil
}

// resolveRun returns what req names, resolving each distinct request
// once: its workload, bench, config and spec are fixed by its fields.
func (s *server) resolveRun(req runRequest) (*resolvedRun, error) {
	s.mu.Lock()
	run, ok := s.runs[req]
	s.mu.Unlock()
	if ok {
		return run, nil
	}
	if req.Kernel == "" || req.Graph == "" {
		return nil, errors.New("kernel and graph are required")
	}
	id, err := harness.ResolveWorkload(req.Kernel, req.Graph)
	if err != nil {
		return nil, err
	}
	b, err := s.bench(req.RunOptions)
	if err != nil {
		return nil, err
	}
	cfg, err := harness.ConfigByName(b.wb.Profile.BaseConfig(1), req.Config)
	if err != nil {
		return nil, err
	}
	run = &resolvedRun{
		b:      b,
		spec:   b.wb.Spec(cfg, id),
		queued: fmt.Sprintf(": run %s on %s (%s profile)", id, cfg.Name, b.wb.Profile.Name),
	}
	s.mu.Lock()
	s.runs[req] = run
	s.mu.Unlock()
	return run, nil
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req := sweepRequest{RunOptions: s.opts}
	if err := decodeBody(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Experiments) == 0 {
		httpError(w, http.StatusBadRequest, "experiments is required (e.g. [\"tab1\",\"fig10\"] or [\"all\"])")
		return
	}
	ids, err := harness.ResolveExperiments(req.Experiments)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	subset, err := harness.SubsetWorkloads(req.Kernels, req.Graphs)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	b, err := s.bench(req.RunOptions)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := s.newJob("sweep")
	j.append(fmt.Sprintf("job %s queued: sweep %s (%s profile)", j.ID, strings.Join(ids, ","), b.wb.Profile.Name))
	s.start(j, b, func() ([]byte, error) {
		out := &sweepResult{}
		for _, id := range ids {
			t, err := b.wb.Experiment(id, subset)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			t.Render(&buf)
			out.Tables = append(out.Tables, sweepTable{ID: t.ID, Text: buf.String()})
			j.append(fmt.Sprintf("job %s: experiment %s done", j.ID, id))
		}
		return encode(out)
	})
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// lookup returns the job the request's path names, or answers 404 and
// returns nil.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) *job {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown or expired job %q", r.PathValue("id"))
	}
	return j
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *job) int { return cmp.Compare(a.n, b.n) })
	out := make([]status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, errMsg, body := j.state, j.errMsg, j.body
	j.mu.Unlock()
	switch state {
	case "done":
		writeBody(w, http.StatusOK, body)
	case "error":
		httpError(w, http.StatusInternalServerError, "%s", errMsg)
	default:
		httpError(w, http.StatusConflict, "job %s is %s; stream /api/jobs/%s/events or retry", j.ID, state, j.ID)
	}
}

// handleJobEvents streams the job's progress log from the beginning and
// follows it until the job reaches a terminal state: Server-Sent Events
// when the client asks for text/event-stream, newline-delimited JSON
// otherwise. Each wake-up renders every pending event in one write, and
// flushes only before blocking: a job already finished — a cached
// result — is a replay that goes out with the response's end.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	var buf []byte
	next := 0
	for {
		j.mu.Lock()
		events := j.events[next:]
		next = len(j.events)
		state := j.state
		notify := j.notify
		j.mu.Unlock()
		buf = buf[:0]
		for _, e := range events {
			buf = appendEvent(buf, e, sse)
		}
		w.Write(buf)
		if state == "done" || state == "error" {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// appendEvent renders one event: an SSE data line, or the ndjson object
// {"event": msg}, whose value is json.Marshal's encoding of msg.
func appendEvent(buf []byte, msg string, sse bool) []byte {
	if sse {
		buf = append(buf, "data: "...)
		buf = append(buf, msg...)
		return append(buf, "\n\n"...)
	}
	q, _ := json.Marshal(msg) // a string always encodes
	buf = append(buf, `{"event":`...)
	buf = append(buf, q...)
	return append(buf, "}\n"...)
}

// storeStats is the wire shape of GET /api/store.
type storeStats struct {
	Dir       string `json:"dir"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

func (s *server) handleStore(w http.ResponseWriter, r *http.Request) {
	if s.tmpl.Store == nil {
		httpError(w, http.StatusNotFound, "no result store attached (start gmserved with -store DIR)")
		return
	}
	entries, bytes, err := s.tmpl.Store.Size()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, storeStats{
		Dir: s.tmpl.Store.Dir(), Hits: s.tmpl.Store.Hits(), Misses: s.tmpl.Store.Misses(),
		Evictions: s.tmpl.Store.Evictions(), Entries: entries, Bytes: bytes,
	})
}

func (s *server) handleGC(w http.ResponseWriter, r *http.Request) {
	if s.tmpl.Store == nil {
		httpError(w, http.StatusNotFound, "no result store attached (start gmserved with -store DIR)")
		return
	}
	// No max is refused rather than read as 0: max=0 empties the store,
	// which a bare POST must not do by accident.
	size := r.URL.Query().Get("max")
	if size == "" {
		httpError(w, http.StatusBadRequest, "max is required")
		return
	}
	maxBytes, err := store.ParseSize(size)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	removed, freed, err := s.tmpl.Store.GC(maxBytes)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"removed": int64(removed), "freed_bytes": freed})
}

// handler builds the service mux.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/run", s.handleRun)
	mux.HandleFunc("POST /api/sweep", s.handleSweep)
	mux.HandleFunc("GET /api/jobs", s.handleJobs)
	mux.HandleFunc("GET /api/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /api/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /api/store", s.handleStore)
	mux.HandleFunc("POST /api/gc", s.handleGC)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// The service ledger's endpoint: Prometheus text + expvar, with the
	// store hit/miss/eviction counters when a store is attached.
	mh := s.tmpl.Metrics.Handler()
	mux.Handle("GET /metrics", mh)
	mux.Handle("GET /debug/vars", mh)
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `gmserved: graphmem sweep service

POST /api/run                submit one simulation point (JSON)
POST /api/sweep              submit a figure sweep (JSON)
GET  /api/jobs               list jobs
GET  /api/jobs/{id}          job status
GET  /api/jobs/{id}/events   progress stream (SSE or ndjson)
GET  /api/jobs/{id}/result   completed result (JSON)
GET  /api/store              result-store statistics
POST /api/gc?max=SIZE        shrink the store to SIZE (LRU)
GET  /metrics                Prometheus text exposition
GET  /healthz                liveness probe
`)
	})
	return mux
}
