package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphmem/internal/check"
)

// checkPrometheusText validates the exposition format line by line:
// every non-comment line must be "name[{labels}] value" with a
// parseable float value.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unterminated label set in %q", line)
			}
			name = name[:j]
		}
		if !strings.HasPrefix(name, "graphmem_") {
			t.Errorf("unprefixed metric in %q", line)
		}
	}
}

func TestMetricsPrometheusText(t *testing.T) {
	m := NewMetrics()
	advance := fakeClock(m)
	plan(m, "aa01", "bb02")
	m.Plan("cc03", false)
	finish := m.Start(nil, "aa01", "", "Baseline/pr.kron")
	m.Start(nil, "bb02", "", "SDC+LP/pr.kron")
	m.Start(nil, "cc03", "", "") // not a point: on no series below
	rec := &RecSummary{
		LoadToUse: HistSummary{Count: 10, P50: 8, P90: 64, P99: 100},
		Levels:    []LevelSummary{{Level: "DRAM", Served: 5}},
	}
	advance(1500 * time.Millisecond)
	finish("", 0.42, rec, check.Summary{})
	m.Served(nil, "dd04", "", "", false)

	var b strings.Builder
	m.WritePrometheus(&b)
	text := b.String()
	checkPrometheusText(t, text)

	for _, want := range []string{
		"graphmem_runs_planned_total 2",
		"graphmem_runs_finished_total 1",
		"graphmem_runs_cached_total 1",
		"graphmem_runs_in_flight 1",
		`graphmem_run_seconds{run="Baseline/pr.kron",key="aa01"} 1.5`,
		`graphmem_run_ipc{run="Baseline/pr.kron",key="aa01"} 0.42`,
		`graphmem_run_served_total{run="Baseline/pr.kron",key="aa01",level="DRAM"} 5`,
		`graphmem_run_load_latency_cycles{run="Baseline/pr.kron",key="aa01",quantile="0.99"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsKeepsSameNameRunsApart: prefetcher presets (and two
// profiles behind one gmserved registry) give distinct runs one config
// name, so runs are told apart by their key — both are in flight, one's
// finish leaves the other there, and both are exported.
func TestMetricsKeepsSameNameRunsApart(t *testing.T) {
	m := NewMetrics()
	advance := fakeClock(m)
	first := m.Start(nil, "aa01", "", "Baseline/pr.kron")
	second := m.Start(nil, "bb02", "", "Baseline/pr.kron")
	inFlight := func() int { return len(m.snapshot()["in_flight"].([]string)) }
	if n := inFlight(); n != 2 {
		t.Fatalf("%d runs in flight, want both same-name runs", n)
	}
	advance(1500 * time.Millisecond)
	first("", 0.4, nil, check.Summary{})
	if n := inFlight(); n != 1 {
		t.Errorf("%d runs in flight after one of two finished, want 1", n)
	}
	advance(time.Second)
	second("", 0.5, nil, check.Summary{})

	var b strings.Builder
	m.WritePrometheus(&b)
	checkPrometheusText(t, b.String())
	for _, want := range []string{
		`graphmem_run_seconds{run="Baseline/pr.kron",key="aa01"} 1.5`,
		`graphmem_run_seconds{run="Baseline/pr.kron",key="bb02"} 2.5`,
		`graphmem_run_ipc{run="Baseline/pr.kron",key="bb02"} 0.5`,
		"graphmem_runs_finished_total 2",
		"graphmem_runs_in_flight 0",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestPromEscape(t *testing.T) {
	if got := promEscape(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Errorf("promEscape = %q", got)
	}
}

func TestMetricsServeEndpoint(t *testing.T) {
	m := NewMetrics()
	m.Plan("aa01", true)
	m.Start(nil, "aa01", "", "Baseline/pr.kron")("", 1.0, nil, check.Summary{})

	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	checkPrometheusText(t, string(body))
	if !strings.Contains(string(body), "graphmem_runs_finished_total 1") {
		t.Errorf("/metrics missing finished counter:\n%s", body)
	}

	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	gm, ok := vars["graphmem"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars missing graphmem block: %v", vars["graphmem"])
	}
	if gm["runs_finished"].(float64) != 1 {
		t.Errorf("expvar runs_finished = %v", gm["runs_finished"])
	}
}
