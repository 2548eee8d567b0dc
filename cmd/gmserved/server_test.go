package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphmem/internal/check"
	"graphmem/internal/harness"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
)

// fastWindows keeps service tests quick: the triad.reg point needs no
// graph build and finishes in well under a second at these windows.
const fastWarmup, fastMeasure = 300_000, 150_000

type testService struct {
	*server
	ts *httptest.Server
}

func newTestService(t testing.TB, storeDir string) *testService {
	t.Helper()
	return newTestServiceOpts(t, harness.RunOptions{Store: storeDir})
}

// newTestServiceOpts starts a service as gmserved's main would for the
// given flags, minus the start-up validation of the base machine (so a
// test can reach the per-request one).
func newTestServiceOpts(t testing.TB, opts harness.RunOptions) *testService {
	t.Helper()
	srv := newTestServer(t, opts)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return &testService{server: srv, ts: ts}
}

// newTestServer is newTestServiceOpts without the socket, for tests
// that drive the handler directly.
func newTestServer(t testing.TB, opts harness.RunOptions) *server {
	t.Helper()
	probe := opts
	probe.Check, probe.Sample = "", ""
	tmpl, err := probe.NewWorkbench("gmserved")
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.CheckLevel, err = check.ParseLevel(opts.Check); err != nil {
		t.Fatal(err)
	}
	if tmpl.Sampling, err = sample.ParsePlan(opts.Sample); err != nil {
		t.Fatal(err)
	}
	return newServer(opts, tmpl, nil)
}

func (s *testService) post(t *testing.T, path string, body any) status {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d (%s)", path, resp.StatusCode, e["error"])
	}
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// follow consumes the job's event stream to its terminal close and
// returns the events, blocking until the job finishes — the stream IS
// the completion signal.
func (s *testService) follow(t testing.TB, jobID string, sse bool) []string {
	t.Helper()
	req, err := http.NewRequest("GET", s.ts.URL+"/api/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := "application/x-ndjson"
	if sse {
		want = "text/event-stream"
	}
	if ct := resp.Header.Get("Content-Type"); ct != want {
		t.Errorf("event stream Content-Type = %q, want %q", ct, want)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if sse {
			events = append(events, strings.TrimPrefix(line, "data: "))
			continue
		}
		var ev map[string]string
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("ndjson stream emitted %q: %v", line, err)
		}
		events = append(events, ev["event"])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func (s *testService) getJSON(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func fastOptions() harness.RunOptions {
	return harness.RunOptions{Profile: "bench", Warmup: fastWarmup, Measure: fastMeasure}
}

func triadRun() runRequest {
	return runRequest{RunOptions: fastOptions(), Kernel: "triad", Graph: "reg", Config: "baseline"}
}

// TestServiceRunRoundTrip submits one point, follows its progress
// stream to completion, and fetches the result: the canonical key, a
// positive IPC, and the full simulation result come back.
func TestServiceRunRoundTrip(t *testing.T) {
	s := newTestService(t, t.TempDir())
	st := s.post(t, "/api/run", triadRun())
	if st.State == "done" || st.Kind != "run" {
		t.Fatalf("submit returned %+v", st)
	}

	events := s.follow(t, st.ID, false)
	if len(events) == 0 || !strings.Contains(events[len(events)-1], "done") {
		t.Fatalf("event stream ended without a done event: %v", events)
	}

	var res runResult
	if code := s.getJSON(t, "/api/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result fetch: status %d", code)
	}
	// The key is the run's structural identity, exactly what a local
	// workbench derives for the same request.
	profile, err := fastOptions().ScaleProfile()
	if err != nil {
		t.Fatal(err)
	}
	wantKey := harness.NewWorkbench(profile).Spec(profile.BaseConfig(1), harness.WorkloadID{Kernel: "triad", Graph: "reg"}).Key()
	wantPrefix := fmt.Sprintf("gmresult|v%d|bench|triad.reg|Baseline (bench-scale)|", sim.StateVersion)
	if res.Key != wantKey || !strings.HasPrefix(res.Key, wantPrefix) {
		t.Errorf("result key = %q, want %q (a readable %q...)", res.Key, wantKey, wantPrefix)
	}
	if res.IPC <= 0 || res.Result == nil || res.Result.Workload != "triad.reg" {
		t.Errorf("implausible result: IPC=%v Result=%+v", res.IPC, res.Result)
	}

	// Job bookkeeping: listed, status done, and still streamable as a
	// pure replay (SSE this time).
	var jobs []status
	if code := s.getJSON(t, "/api/jobs", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Fatalf("job list: status %d, %d jobs", code, len(jobs))
	}
	if jobs[0].State != "done" {
		t.Errorf("job state = %q, want done", jobs[0].State)
	}
	if replay := s.follow(t, st.ID, true); len(replay) != len(events) {
		t.Errorf("SSE replay has %d events, live stream had %d", len(replay), len(events))
	}
}

// TestServiceSecondRequestCached is the dedup guarantee: an identical
// second submission completes without a new simulation — the memo (and
// under it, the store) serves it.
func TestServiceSecondRequestCached(t *testing.T) {
	s := newTestService(t, t.TempDir())

	first := s.post(t, "/api/run", triadRun())
	s.follow(t, first.ID, false)
	_, finished, cached, stored := s.tmpl.Metrics.Counts()
	if finished != 1 {
		t.Fatalf("first request ran %d simulations, want 1", finished)
	}

	second := s.post(t, "/api/run", triadRun())
	s.follow(t, second.ID, false)
	_, finished2, cached2, stored2 := s.tmpl.Metrics.Counts()
	if finished2 != finished {
		t.Errorf("second identical request ran a new simulation (finished %d → %d)", finished, finished2)
	}
	if cached2+stored2 <= cached+stored {
		t.Error("second request recorded no cache or store hit")
	}

	var a, b runResult
	s.getJSON(t, "/api/jobs/"+first.ID+"/result", &a)
	s.getJSON(t, "/api/jobs/"+second.ID+"/result", &b)
	if a.Key != b.Key || a.IPC != b.IPC {
		t.Errorf("cached result diverged: %v/%v vs %v/%v", a.Key, a.IPC, b.Key, b.IPC)
	}

	// Cross-restart dedup: a fresh server over the same store directory
	// serves the point from disk, still without simulating.
	s2 := newTestService(t, s.tmpl.Store.Dir())
	third := s2.post(t, "/api/run", triadRun())
	s2.follow(t, third.ID, false)
	_, finished3, _, stored3 := s2.tmpl.Metrics.Counts()
	if finished3 != 0 || stored3 != 1 {
		t.Errorf("restarted server: finished=%d stored=%d, want 0 live runs and 1 store hit", finished3, stored3)
	}
	var c runResult
	s2.getJSON(t, "/api/jobs/"+third.ID+"/result", &c)
	if c.Key != a.Key || c.IPC != a.IPC {
		t.Errorf("store-served result diverged: %v/%v vs %v/%v", c.Key, c.IPC, a.Key, a.IPC)
	}
}

// TestServiceSweepMatchesLocalHarness submits a one-workload fig10
// sweep and checks the rendered table is byte-identical to driving the
// harness directly — the determinism contract over HTTP.
func TestServiceSweepMatchesLocalHarness(t *testing.T) {
	s := newTestService(t, t.TempDir())
	st := s.post(t, "/api/sweep", sweepRequest{
		// "prefetch" is opt-in: 'all' leaves it out, but a sweep may name it.
		RunOptions: fastOptions(), Experiments: []string{"fig10", "prefetch"},
		Kernels: "triad", Graphs: "reg",
	})
	events := s.follow(t, st.ID, false)
	if len(events) == 0 || !strings.Contains(events[len(events)-1], "done") {
		t.Fatalf("sweep stream ended without done: %v", events)
	}
	var res sweepResult
	if code := s.getJSON(t, "/api/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("sweep result: status %d", code)
	}
	if len(res.Tables) != 2 || res.Tables[0].ID != "fig10" || res.Tables[1].ID != "prefetch" {
		t.Fatalf("sweep returned %+v", res.Tables)
	}

	profile, err := harness.ProfileByName("bench")
	if err != nil {
		t.Fatal(err)
	}
	profile.Warmup, profile.Measure = fastWarmup, fastMeasure
	wb := harness.NewWorkbench(profile)
	subset, err := harness.SubsetWorkloads("triad", "reg")
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range res.Tables {
		table, err := wb.Experiment(got.ID, subset)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		table.Render(&buf)
		if got.Text != buf.String() {
			t.Errorf("service %s table differs from local harness:\n--- service ---\n%s\n--- local ---\n%s",
				got.ID, got.Text, buf.String())
		}
	}
}

// TestServiceStoreAndGCEndpoints exercises the operational surface:
// store stats reflect published entries, /api/gc refuses an overflowing
// size and evicts them on a valid one, and the metrics endpoint exposes
// the store counters.
func TestServiceStoreAndGCEndpoints(t *testing.T) {
	s := newTestService(t, t.TempDir())
	st := s.post(t, "/api/run", triadRun())
	s.follow(t, st.ID, false)

	var stats storeStats
	if code := s.getJSON(t, "/api/store", &stats); code != http.StatusOK {
		t.Fatalf("store stats: status %d", code)
	}
	if stats.Entries != 1 || stats.Misses != 1 || stats.Bytes == 0 {
		t.Errorf("after one run: %+v, want 1 entry from 1 miss", stats)
	}

	// A cap past MaxInt64 is refused, not wrapped to a negative cap that
	// would empty the store; so is a missing one, which is not max=0.
	for _, size := range []string{"9000000000G", "8589934592G", ""} {
		resp, err := http.Post(s.ts.URL+"/api/gc?max="+size, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("gc max=%s: status %d, want 400", size, resp.StatusCode)
		}
	}
	if code := s.getJSON(t, "/api/store", &stats); code != http.StatusOK || stats.Entries != 1 || stats.Evictions != 0 {
		t.Errorf("after refused gc: status %d, %+v; want the entry kept", code, stats)
	}

	resp, err := http.Post(s.ts.URL+"/api/gc?max=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var gc map[string]int64
	json.NewDecoder(resp.Body).Decode(&gc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || gc["removed"] != 1 {
		t.Errorf("gc: status %d, %+v", resp.StatusCode, gc)
	}
	if code := s.getJSON(t, "/api/store", &stats); code != http.StatusOK || stats.Entries != 0 {
		t.Errorf("after gc: status %d, %+v", code, stats)
	}

	mresp, err := http.Get(s.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, metric := range []string{"graphmem_store_misses_total", "graphmem_store_evictions_total", "graphmem_runs_store_total"} {
		if !strings.Contains(prom.String(), metric) {
			t.Errorf("/metrics is missing %s", metric)
		}
	}
}

// TestServiceRejectsBadRequests pins the 4xx surface.
func TestServiceRejectsBadRequests(t *testing.T) {
	s := newTestService(t, "")
	cases := []struct {
		path string
		body string
	}{
		{"/api/run", `{"profile":"bench","kernel":"nope","graph":"reg"}`},
		{"/api/run", `{"profile":"bench"}`},
		{"/api/run", `{"profile":"marvel","kernel":"triad","graph":"reg"}`},
		{"/api/run", `{"profile":"bench","kernel":"triad","graph":"reg","config":"warp-drive"}`},
		{"/api/run", `{"profile":"bench","kernel":"triad","graph":"reg","warmup":100000,"measure":9223372036854775807}`},
		{"/api/run", `{"profile":"bench","kernel":"triad","graph":"reg","warmup":-5,"measure":20000}`},
		{"/api/run", `{"profile":"bench","kernel":"triad","graph":"reg","measure":-5}`},
		{"/api/sweep", `{"profile":"bench","experiments":["tab4"],"warmup":-5}`},
		{"/api/sweep", `{"profile":"bench","experiments":["tab4"],"measure":-5}`},
		{"/api/sweep", `{"profile":"bench","experiments":[]}`},
		{"/api/sweep", `{"profile":"bench","experiments":["fig99"]}`},
		{"/api/sweep", `{"profile":"bench","experiments":["prefetch","fig99"]}`},
		{"/api/sweep", `not json`},
		// Hardening: unknown fields (a run option that is a flag, not a
		// body field), trailing data, and oversized bodies are refused.
		{"/api/run", `{"profile":"bench","kernel":"triad","graph":"reg","check":"full"}`},
		{"/api/run", `{"profile":"bench","kernel":"triad","graph":"reg"}{"x":1}`},
		{"/api/sweep", `{"profile":"bench","experiments":["tab1"],"kernels":"` + strings.Repeat("x", maxBody) + `"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(s.ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	if code := s.getJSON(t, "/api/jobs/j9999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", code)
	}
	if code := s.getJSON(t, "/api/store", nil); code != http.StatusNotFound {
		t.Errorf("store stats without a store: %d, want 404", code)
	}

	// A job that is still queued or running answers its result poll with
	// 409 (retry), not an error.
	st := s.post(t, "/api/run", triadRun())
	deadline := time.Now().Add(10 * time.Second)
	sawConflict := false
	for time.Now().Before(deadline) {
		code := s.getJSON(t, "/api/jobs/"+st.ID+"/result", nil)
		if code == http.StatusConflict {
			sawConflict = true
		}
		if code == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawConflict {
		t.Log("job finished before the first poll; 409 path not observed (benign on fast machines)")
	}
}

// postRaw posts body as is and returns the status and the decoded
// "error" field (empty on success).
func (s *testService) postRaw(t testing.TB, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e["error"]
}

// TestServiceSurfacesValidateText is the service's cell of the mode
// matrix: modes that do not compose are refused per request with 400
// and exactly sim.Config.Validate's reason, the text gmsim exits with.
func TestServiceSurfacesValidateText(t *testing.T) {
	opts := harness.RunOptions{Sample: "50000,2000,10000", Check: "oracle"}
	s := newTestServiceOpts(t, opts)
	if _, err := opts.NewWorkbench("gmserved"); err == nil {
		t.Fatal("gmserved would start with -sample and -check both set")
	}
	want := s.tmpl.Sampling
	cfg := sim.TableI(1).WithCheck(check.OracleOnly)
	cfg.Sampling.Plan = want
	reason := cfg.Validate()
	if reason == nil {
		t.Fatal("Validate accepts sampling under the checker")
	}
	for path, body := range map[string]string{
		"/api/run":   `{"profile":"bench","kernel":"triad","graph":"reg"}`,
		"/api/sweep": `{"profile":"bench","experiments":["tab1"]}`,
	} {
		if code, msg := s.postRaw(t, path, body); code != http.StatusBadRequest || msg != reason.Error() {
			t.Errorf("POST %s: status %d error %q, want 400 %q", path, code, msg, reason)
		}
	}
}

// FuzzRunRequestBody throws arbitrary bodies at both POST endpoints
// (seed corpus under testdata/fuzz): whatever arrives, the service
// neither panics nor answers 5xx, and a body it accepts runs to a done
// job. Bodies that would start an expensive job (a real graph, a figure
// sweep, long windows) are skipped — the target is the input surface,
// not the simulator — and requests go straight to the handler, so the
// fuzz engine's minimizer is not throttled by a socket.
func FuzzRunRequestBody(f *testing.F) {
	s := newTestService(f, "")
	h := s.handler()
	cheap := map[string]bool{"tab4": true}
	f.Fuzz(func(t *testing.T, body string) {
		var probe struct {
			Graph           string
			Experiments     []string
			Warmup, Measure int64
		}
		if json.Unmarshal([]byte(body), &probe) == nil {
			for _, id := range probe.Experiments {
				if !cheap[id] {
					t.Skip("a figure sweep")
				}
			}
			small := func(n int64) bool { return n > 0 && n <= 50_000 }
			if probe.Graph != "" && (probe.Graph != "reg" || !small(probe.Warmup) || !small(probe.Measure)) {
				t.Skip("an expensive run")
			}
		}
		for _, path := range []string{"/api/run", "/api/sweep"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Errorf("POST %s %q: status %d %s", path, body, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusAccepted {
				continue
			}
			var st status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("POST %s %q: 202 with body %s", path, body, rec.Body)
			}
			for j := s.job(st.ID); ; {
				j.mu.Lock()
				state, notify := j.state, j.notify
				j.mu.Unlock()
				if state == "done" {
					break
				}
				if state == "error" {
					t.Fatalf("POST %s %q: accepted job failed: %+v", path, body, j.status())
				}
				<-notify
			}
		}
	})
}

// getRaw fetches path and returns the status and the body as served.
func (s *testService) getRaw(t testing.TB, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServiceListsJobsInSubmissionOrder: GET /api/jobs lists jobs in
// the order they were submitted, also past j9999, where the IDs stop
// sorting as strings.
func TestServiceListsJobsInSubmissionOrder(t *testing.T) {
	s := newTestService(t, "")
	s.mu.Lock()
	s.nextJob = 9998
	s.mu.Unlock()
	var want []string
	for range 3 {
		st := s.post(t, "/api/run", triadRun())
		s.follow(t, st.ID, false)
		want = append(want, st.ID)
	}
	var jobs []status
	if code := s.getJSON(t, "/api/jobs", &jobs); code != http.StatusOK {
		t.Fatalf("job list: status %d", code)
	}
	var got []string
	for _, j := range jobs {
		got = append(got, j.ID)
	}
	if !slices.Equal(got, want) || want[0] != "j9999" {
		t.Errorf("GET /api/jobs lists %v, want %v", got, want)
	}
}

// TestServiceExpiresFinishedJobs: a job that finished more than the TTL
// ago is dropped when the next job is submitted, so the job map stays
// bounded, and its status, events and result answer 404.
func TestServiceExpiresFinishedJobs(t *testing.T) {
	s := newTestService(t, "")
	const ttl = 4 * time.Millisecond
	var clock atomic.Int64 // nanoseconds since epoch
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	s.jobTTL = ttl
	s.now = func() time.Time { return epoch.Add(time.Duration(clock.Load())) }

	first := s.post(t, "/api/run", triadRun())
	s.follow(t, first.ID, false)
	prev := first
	for i := 0; i < 20; i++ {
		clock.Add(int64(ttl / 2))
		st := s.post(t, "/api/run", triadRun())
		s.follow(t, st.ID, false)
		s.mu.Lock()
		n := len(s.jobs)
		s.mu.Unlock()
		// Live: this job and the two that finished within the TTL.
		if n > 3 {
			t.Fatalf("after %d jobs %v apart, %d jobs are kept, want at most 3", i+2, ttl/2, n)
		}
		// The job before this one finished ttl/2 ago: still served.
		if code, body := s.getRaw(t, "/api/jobs/"+prev.ID+"/result"); code != http.StatusOK {
			t.Fatalf("job %s, finished %v ago: status %d %s", prev.ID, ttl/2, code, body)
		}
		prev = st
	}
	want, _ := json.Marshal(map[string]string{"error": fmt.Sprintf("unknown or expired job %q", first.ID)})
	for _, path := range []string{"", "/events", "/result"} {
		code, body := s.getRaw(t, "/api/jobs/"+first.ID+path)
		if code != http.StatusNotFound || !bytes.Equal(bytes.TrimSpace(body), want) {
			t.Errorf("GET %s of the expired job: %d %s, want 404 %s", path, code, body, want)
		}
	}
}

// runBody submits req, reads its event stream to the end and returns
// the result body; it is safe to call from several goroutines.
func (s *testService) runBody(req runRequest) ([]byte, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(s.ts.URL+"/api/run", "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var st status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for _, path := range []string{"/events", "/result"} {
		if resp, err = http.Get(s.ts.URL + "/api/jobs/" + st.ID + path); err != nil {
			return nil, err
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

// TestServiceResultBodyBytes pins a point's result body byte for byte:
// the indented encoding of its runResult, the same for every job of the
// key — four submitted at once, so the first resolution and encoding
// race — and after a restart over the same store.
func TestServiceResultBodyBytes(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, dir)
	bodies := make([][]byte, 5)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if bodies[i], err = s.runBody(triadRun()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var err error
	if bodies[4], err = newTestService(t, dir).runBody(triadRun()); err != nil {
		t.Fatal(err)
	}

	profile, err := fastOptions().ScaleProfile()
	if err != nil {
		t.Fatal(err)
	}
	wb := harness.NewWorkbench(profile)
	wb.Store = s.tmpl.Store
	spec := wb.Spec(profile.BaseConfig(1), harness.WorkloadID{Kernel: "triad", Graph: "reg"})
	res := wb.Run(spec)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&runResult{Key: spec.Key(), IPC: res.IPC(), Result: res}); err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("result body %d (jobs 1-4, then 1 after a restart) differs from the indented runResult:\n%s\nwant:\n%s", i+1, body, want.Bytes())
		}
	}
}

// TestServiceEventStreamBytes pins the rendering of a finished job's
// replay, byte for byte, to the per-line rendering it replaced — a
// marshalled {"event": msg} map per ndjson line, "data: %s\n\n" per SSE
// event — for messages JSON must escape; the replay goes out with the
// response's end, never through an explicit flush.
func TestServiceEventStreamBytes(t *testing.T) {
	s := newTestServer(t, harness.RunOptions{})
	h := s.handler()
	msgs := []string{`say "hi"`, `C:\path`, "<b> & </b>", "héllo → 世界", "tab\tand\u2028", "bad \xff byte"}
	j := s.newJob("run")
	for _, m := range msgs {
		j.append(m)
	}
	s.finish(j, []byte("{}\n"), nil)
	events := append(msgs, "job "+j.ID+" done")
	for _, sse := range []bool{false, true} {
		var want bytes.Buffer
		for _, e := range events {
			if sse {
				fmt.Fprintf(&want, "data: %s\n\n", e)
			} else {
				data, _ := json.Marshal(map[string]string{"event": e})
				fmt.Fprintf(&want, "%s\n", data)
			}
		}
		req := httptest.NewRequest("GET", "/api/jobs/"+j.ID+"/events", nil)
		if sse {
			req.Header.Set("Accept", "text/event-stream")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Body.String() != want.String() {
			t.Errorf("sse=%v stream:\n%q\nwant:\n%q", sse, rec.Body, want.String())
		}
		if rec.Flushed {
			t.Errorf("sse=%v: the replay of a finished job flushed explicitly", sse)
		}
	}
}

// flushRecorder reports each explicit flush of the recorded response.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushed chan struct{}
}

func (f flushRecorder) Flush() {
	f.ResponseRecorder.Flush()
	select {
	case f.flushed <- struct{}{}:
	default:
	}
}

// TestServiceEventStreamFollowsRunningJob: a stream opened while the job
// runs flushes what it has before it waits, and delivers "running"
// before "done".
func TestServiceEventStreamFollowsRunningJob(t *testing.T) {
	s := newTestServer(t, harness.RunOptions{})
	b, err := s.bench(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	j := s.newJob("run")
	s.start(j, b, func() ([]byte, error) {
		<-release
		return []byte("{}\n"), nil
	})
	rec := flushRecorder{httptest.NewRecorder(), make(chan struct{}, 1)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/jobs/"+j.ID+"/events", nil))
	}()
	<-rec.flushed // the stream is waiting on the running job
	close(release)
	<-done
	want := fmt.Sprintf("{\"event\":\"job %s running\"}\n{\"event\":\"job %s done\"}\n", j.ID, j.ID)
	if rec.Body.String() != want {
		t.Errorf("stream of a running job:\n%s\nwant:\n%s", rec.Body, want)
	}
}

// TestServiceResolvedShapeKeepsRefusals: once a request shape has
// resolved, requests that decode to it or differ from it in one field
// are still refused with the same 400 text.
func TestServiceResolvedShapeKeepsRefusals(t *testing.T) {
	s := newTestService(t, "")
	good := `{"profile":"bench","kernel":"triad","graph":"reg","warmup":300000,"measure":150000`
	_, configErr := harness.ConfigByName(sim.TableI(1), "warp-drive")
	bad := map[string]string{
		good + `}{"x":1}`:                "bad request body: trailing data after the JSON object",
		good + `,"check":"full"}`:        `bad request body: json: unknown field "check"`,
		good + `,"kernel":"nope"}`:       "unknown workload nope.reg",
		good + `,"kernel":""}`:           "kernel and graph are required",
		good + `,"config":"warp-drive"}`: configErr.Error(),
		good + `,"profile":"marvel"}`:    `harness: unknown profile "marvel"`,
		strings.Replace(good, "reg", "reg,reg,reg", 1) + `,"graph":"kron,urand"}`: "unknown workload triad.kron,urand",
	}
	refused := func(when string) {
		for body, want := range bad {
			if code, msg := s.postRaw(t, "/api/run", body); code != http.StatusBadRequest || msg != want {
				t.Errorf("%s: POST %s: %d %q, want 400 %q", when, body, code, msg, want)
			}
		}
	}
	refused("before the shape resolved")
	for range 2 {
		code, msg := s.postRaw(t, "/api/run", good+`}`)
		if code != http.StatusAccepted {
			t.Fatalf("POST %s}: %d %s", good, code, msg)
		}
	}
	refused("after the shape resolved")
}

// BenchmarkServeOp is one memo-warm serve_warm operation at handler
// level — POST /api/run, the job's ndjson event stream to its end, GET of
// the result — over ResponseRecorders, with no socket: the service's own
// per-operation work. ci/bench_baseline.txt pins its allocs/op.
func BenchmarkServeOp(b *testing.B) {
	s := newTestServer(b, harness.RunOptions{})
	// Each job expires when the next is submitted, so the live heap, and
	// with it the cost of an operation, does not grow with b.N.
	s.jobTTL = time.Nanosecond
	h := s.handler()
	body, err := json.Marshal(triadRun())
	if err != nil {
		b.Fatal(err)
	}
	serve := func(method, target string, body io.Reader) *httptest.ResponseRecorder {
		req, err := http.NewRequest(method, target, body)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	op := func() {
		rec := serve("POST", "/api/run", bytes.NewReader(body))
		var st status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusAccepted {
			b.Fatalf("POST /api/run: %d %s", rec.Code, rec.Body)
		}
		if rec = serve("GET", "/api/jobs/"+st.ID+"/events", nil); !bytes.HasSuffix(rec.Body.Bytes(), []byte(" done\"}\n")) {
			b.Fatalf("events of %s: %s", st.ID, rec.Body)
		}
		if rec = serve("GET", "/api/jobs/"+st.ID+"/result", nil); rec.Code != http.StatusOK {
			b.Fatalf("result of %s: %d", st.ID, rec.Code)
		}
	}
	op() // simulates the point: every timed operation is a memo hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
