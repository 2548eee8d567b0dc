package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"graphmem"
)

// server is the sweep service: a result store fronted by per-profile
// workbenches, so every client shares one single-flight memo
// (in-flight and in-process dedup) and one disk cache (cross-restart
// and cross-process dedup via the store). Jobs run asynchronously;
// clients poll or stream per-job progress events.
type server struct {
	// opts are the service's flags, the defaults every request body is
	// decoded over; tmpl is the workbench they describe, from which each
	// bench inherits its knobs, store and metrics.
	opts graphmem.RunOptions
	tmpl *graphmem.Workbench
	logf func(format string, args ...any)

	mu      sync.Mutex
	nextJob int
	jobs    map[string]*job
	benches map[benchKey]*bench
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
	wb *graphmem.Workbench

	mu     sync.Mutex
	active map[*job]bool
}

// job is one submitted unit of work with an append-only event log that
// progress streams replay and follow.
type job struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "run" or "sweep"

	mu       sync.Mutex
	state    string // "queued", "running", "done", "error"
	errMsg   string
	events   []string
	notify   chan struct{} // closed and replaced on every append
	result   any
	created  time.Time
	finished time.Time
}

func newServer(opts graphmem.RunOptions, tmpl *graphmem.Workbench, logf func(string, ...any)) *server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if tmpl.Metrics == nil {
		tmpl.Metrics = graphmem.NewMetrics()
		if tmpl.Store != nil {
			tmpl.Metrics.AttachStore(tmpl.Store)
		}
	}
	return &server{
		opts:    opts,
		tmpl:    tmpl,
		logf:    logf,
		jobs:    make(map[string]*job),
		benches: make(map[benchKey]*bench),
	}
}

// bench returns (creating on first use) the shared workbench for the
// request's profile and windows. Overridden windows key a distinct
// bench: they change every run key, so sharing a workbench would only
// pollute its memo. A bench whose modes do not compose on its base
// machine (every config a request can name derives from it) is refused
// with Config.Validate's reason.
func (s *server) bench(o graphmem.RunOptions) (*bench, error) {
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

// newJob registers a queued job.
func (s *server) newJob(kind string) *job {
	s.mu.Lock()
	s.nextJob++
	j := &job{
		ID:      fmt.Sprintf("j%04d", s.nextJob),
		Kind:    kind,
		state:   "queued",
		notify:  make(chan struct{}),
		created: time.Now(),
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()
	return j
}

// start runs fn asynchronously on b, bracketing it with job lifecycle
// events and converting panics (unknown kernels, simulator faults) into
// a terminal error state instead of killing the service.
func (s *server) start(j *job, b *bench, fn func() (any, error)) {
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
				j.fail(fmt.Sprintf("panic: %v", p))
			}
		}()
		res, err := fn()
		if err != nil {
			s.logf("job %s failed: %v", j.ID, err)
			j.fail(err.Error())
			return
		}
		j.complete(res)
		s.logf("job %s done", j.ID)
	}()
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

func (j *job) fail(msg string) {
	j.mu.Lock()
	j.state = "error"
	j.errMsg = msg
	j.finished = time.Now()
	j.events = append(j.events, "job "+j.ID+" error: "+msg)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

func (j *job) complete(res any) {
	j.mu.Lock()
	j.state = "done"
	j.result = res
	j.finished = time.Now()
	j.events = append(j.events, "job "+j.ID+" done")
	close(j.notify)
	j.notify = make(chan struct{})
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
	graphmem.RunOptions
	Kernel string `json:"kernel"`
	Graph  string `json:"graph"`
	Config string `json:"config"`
}

// sweepRequest is a whole figure sweep (POST /api/sweep).
type sweepRequest struct {
	graphmem.RunOptions
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
	Key    string           `json:"key"`
	IPC    float64          `json:"ipc"`
	Result *graphmem.Result `json:"result"`
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	req := runRequest{RunOptions: s.opts}
	if err := decodeBody(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Kernel == "" || req.Graph == "" {
		httpError(w, http.StatusBadRequest, "kernel and graph are required")
		return
	}
	subset, err := graphmem.SubsetWorkloads(req.Kernel, req.Graph)
	if err != nil || len(subset) != 1 {
		httpError(w, http.StatusBadRequest, "unknown workload %s.%s", req.Kernel, req.Graph)
		return
	}
	id := subset[0]
	b, err := s.bench(req.RunOptions)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := graphmem.ConfigByName(b.wb.Profile.BaseConfig(1), req.Config)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := b.wb.Spec(cfg, id)
	j := s.newJob("run")
	j.append(fmt.Sprintf("job %s queued: run %s on %s (%s profile)", j.ID, id, cfg.Name, b.wb.Profile.Name))
	s.start(j, b, func() (any, error) {
		res := b.wb.Run(spec)
		return &runResult{Key: spec.Key(), IPC: res.IPC(), Result: res}, nil
	})
	writeJSON(w, http.StatusAccepted, j.status())
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
	ids := req.Experiments
	if len(ids) == 1 && ids[0] == "all" {
		ids = graphmem.ExperimentIDs
	}
	for _, id := range ids {
		if !slices.Contains(graphmem.ExperimentIDs, id) && !slices.Contains(graphmem.OptInExperimentIDs, id) {
			httpError(w, http.StatusBadRequest, "unknown experiment %q", id)
			return
		}
	}
	subset, err := graphmem.SubsetWorkloads(req.Kernels, req.Graphs)
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
	s.start(j, b, func() (any, error) {
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
		return out, nil
	})
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	j.mu.Unlock()
	switch state {
	case "done":
		writeJSON(w, http.StatusOK, result)
	case "error":
		httpError(w, http.StatusInternalServerError, "%s", errMsg)
	default:
		httpError(w, http.StatusConflict, "job %s is %s; stream /api/jobs/%s/events or retry", j.ID, state, j.ID)
	}
}

// handleJobEvents streams the job's progress log from the beginning and
// follows it until the job reaches a terminal state: Server-Sent Events
// when the client asks for text/event-stream, newline-delimited JSON
// otherwise. Cached results finish instantly, so the stream may be a
// replay that closes immediately.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
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
	emit := func(msg string) {
		if sse {
			fmt.Fprintf(w, "data: %s\n\n", msg)
		} else {
			data, _ := json.Marshal(map[string]string{"event": msg})
			fmt.Fprintf(w, "%s\n", data)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	next := 0
	for {
		j.mu.Lock()
		events := j.events[next:]
		next = len(j.events)
		state := j.state
		notify := j.notify
		j.mu.Unlock()
		for _, e := range events {
			emit(e)
		}
		if state == "done" || state == "error" {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
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
	maxBytes, err := graphmem.ParseStoreSize(r.URL.Query().Get("max"))
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
	// The shared metrics endpoint: Prometheus text + expvar, extended
	// with the store hit/miss/eviction counters via AttachStore.
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
