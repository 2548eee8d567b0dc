package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphmem"
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
	return newTestServiceOpts(t, graphmem.RunOptions{Store: storeDir})
}

// newTestServiceOpts starts a service as gmserved's main would for the
// given flags, minus the start-up validation of the base machine (so a
// test can reach the per-request one).
func newTestServiceOpts(t testing.TB, opts graphmem.RunOptions) *testService {
	t.Helper()
	probe := opts
	probe.Check, probe.Sample = "", ""
	tmpl, err := probe.NewWorkbench("gmserved")
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.CheckLevel, err = graphmem.ParseCheckLevel(opts.Check); err != nil {
		t.Fatal(err)
	}
	if tmpl.Sampling, err = graphmem.ParseSamplePlan(opts.Sample); err != nil {
		t.Fatal(err)
	}
	srv := newServer(opts, tmpl, nil)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return &testService{server: srv, ts: ts}
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

func fastOptions() graphmem.RunOptions {
	return graphmem.RunOptions{Profile: "bench", Warmup: fastWarmup, Measure: fastMeasure}
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
	wantKey := graphmem.NewWorkbench(profile).Spec(profile.BaseConfig(1), graphmem.WorkloadID{Kernel: "triad", Graph: "reg"}).Key()
	wantPrefix := fmt.Sprintf("gmresult|v%d|bench|triad.reg|Baseline (bench-scale)|", graphmem.ResultStateVersion)
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

	profile, err := graphmem.ProfileByName("bench")
	if err != nil {
		t.Fatal(err)
	}
	profile.Warmup, profile.Measure = fastWarmup, fastMeasure
	wb := graphmem.NewWorkbench(profile)
	subset, err := graphmem.SubsetWorkloads("triad", "reg")
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
// store stats reflect published entries, /api/gc evicts them, and the
// metrics endpoint exposes the store counters.
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
	opts := graphmem.RunOptions{Sample: "50000,2000,10000", Check: "oracle"}
	s := newTestServiceOpts(t, opts)
	if _, err := opts.NewWorkbench("gmserved"); err == nil {
		t.Fatal("gmserved would start with -sample and -check both set")
	}
	want := s.tmpl.Sampling
	cfg := graphmem.TableI(1).WithCheck(graphmem.CheckOracle)
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
