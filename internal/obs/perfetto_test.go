package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphmem/internal/mem"
)

// tracedRecorder builds a recorder with a three-sample timeline:
// baseline, one busy interval, one cool-down interval.
func tracedRecorder() *Recorder {
	r := NewRecorder(10)
	r.Sample(0, 0, [NumLevels]int32{}, 0, 0)
	for i := 0; i < 3; i++ {
		r.Load(mem.ServedDRAM, 100)
		r.LoadToUse(100)
	}
	r.LPDecision(true)
	var mshr [NumLevels]int32
	mshr[mem.ServedL1D] = 2
	r.Sample(10, 100, mshr, 4, 9)
	r.Load(mem.ServedDRAM, 100)
	r.Load(mem.ServedDRAM, 100)
	r.Load(mem.ServedL1D, 2)
	r.Sample(20, 200, [NumLevels]int32{}, 0, 0)
	return r
}

func TestWritePerfettoDeltasAndGauges(t *testing.T) {
	var buf bytes.Buffer
	err := WritePerfetto(&buf, []TraceRun{
		{Name: "skipped", Rec: nil},
		{Name: "Baseline/pr.kron", Rec: tracedRecorder().Summary()},
	})
	if err != nil {
		t.Fatal(err)
	}

	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}

	var names []string
	served := map[string]float64{}
	var sawMSHR, sawDRAMOcc bool
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			names = append(names, ev.Args["name"].(string))
			continue
		}
		if ev.Ph != "C" {
			t.Errorf("unexpected event phase %q", ev.Ph)
			continue
		}
		switch ev.Name {
		case "served (loads/interval)":
			if ev.Ts == 0 {
				t.Error("cumulative track emitted at the baseline sample")
			}
			for lv, v := range ev.Args {
				served[lv] += v.(float64)
			}
		case "mshr in-flight":
			sawMSHR = true
			if ev.Ts == 100 && ev.Args["L1D"].(float64) != 2 {
				t.Errorf("mshr gauge at ts 100 = %v", ev.Args)
			}
		case "dram occupancy":
			sawDRAMOcc = true
			if ev.Ts == 100 {
				if ev.Args["busy_banks"].(float64) != 4 || ev.Args["bus_backlog"].(float64) != 9 {
					t.Errorf("dram gauge at ts 100 = %v", ev.Args)
				}
			}
		}
	}
	// The nil-recorder run is skipped entirely; one process remains.
	if len(names) != 1 || names[0] != "Baseline/pr.kron" {
		t.Errorf("process names = %v", names)
	}
	// Interval deltas sum back to the aggregate counters.
	if served["DRAM"] != 5 || served["L1D"] != 1 {
		t.Errorf("served delta sums = %v, want DRAM 5, L1D 1", served)
	}
	if !sawMSHR || !sawDRAMOcc {
		t.Errorf("gauge tracks missing: mshr=%v dram=%v", sawMSHR, sawDRAMOcc)
	}
}

func TestWritePerfettoEmptyAndFile(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 0 {
		t.Errorf("empty trace carries %d events", len(tf.TraceEvents))
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("traceEvents must marshal as an array, got %s", buf.String())
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	runs := []TraceRun{{Name: "r", Rec: tracedRecorder().Summary()}}
	if err := WritePerfettoFile(path, runs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}

func TestManifestFlightRecorderRoundTrip(t *testing.T) {
	r := tracedRecorder()
	m := NewManifest("gmsim-test")
	m.FlightRecorder = r.Summary()

	var buf bytes.Buffer
	if err := m.Finalize(time.Now()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	rec := back.FlightRecorder
	if rec == nil {
		t.Fatal("round trip dropped the flight_recorder block")
	}
	if rec.ServedTotal("DRAM") != 5 || rec.ServedTotal("L1D") != 1 {
		t.Errorf("served totals lost: %+v", rec.Levels)
	}
	if rec.LoadToUse.Count != r.AllLoads.Count {
		t.Errorf("load-to-use count %d != %d", rec.LoadToUse.Count, r.AllLoads.Count)
	}
	if len(rec.Samples) != 3 {
		t.Errorf("timeline lost: %d samples", len(rec.Samples))
	}
	if rec.LPAverse != 1 {
		t.Errorf("LP counters lost: %d", rec.LPAverse)
	}

	// Runs without a recorder omit the key entirely.
	buf.Reset()
	if err := NewManifest("gmsim-test").Finalize(time.Now()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "flight_recorder") {
		t.Error("recorder-less manifest must omit flight_recorder")
	}
}
