// Acceptance test for the telemetry pipeline: the library-level
// equivalent of
//
//	gmsim -kernel pr -graph kron -config sdclp -profile bench \
//	      -json -epoch 100000 -warmup 1000000 -measure 1000000
//
// must emit a valid manifest whose epoch samples tile the measurement
// window exactly.
package graphmem_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"graphmem/internal/harness"
	"graphmem/internal/obs"
)

func TestRunManifestAcceptance(t *testing.T) {
	profile := harness.Bench()
	profile.Warmup, profile.Measure = 1_000_000, 1_000_000
	wb := harness.NewWorkbench(profile)
	cfg := profile.BaseConfig(1).WithSDCLP().WithEpochInterval(100_000)
	id := harness.WorkloadID{Kernel: "pr", Graph: "kron"}

	start := time.Now()
	res := wb.RunSingle(cfg, id)

	m := obs.NewManifest("gmsim")
	m.Profile = profile.Name
	m.Workload = id.String()
	m.Config = cfg.WithWindows(profile.Warmup, profile.Measure).ManifestInfo()
	m.Reruns = res.Reruns
	m.Final = res.Stats
	m.Derived = obs.DeriveMetrics(&res.Stats)
	m.Epochs = res.Epochs
	var buf bytes.Buffer
	if err := m.Finalize(start).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	// The manifest must survive a JSON round-trip intact.
	var back obs.Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.SchemaVersion != 1 || back.Tool != "gmsim" || back.Workload != "pr.kron" {
		t.Errorf("manifest provenance wrong: schema=%d tool=%q workload=%q",
			back.SchemaVersion, back.Tool, back.Workload)
	}
	if back.Config.Name != cfg.Name || back.Config.EpochInterval != 100_000 {
		t.Errorf("manifest config wrong: %+v", back.Config)
	}
	if back.Final.Instructions != res.Stats.Instructions || back.Derived.IPC <= 0 {
		t.Errorf("manifest counters wrong: final instr %d (want %d), ipc %.3f",
			back.Final.Instructions, res.Stats.Instructions, back.Derived.IPC)
	}
	if back.Runtime.GoVersion == "" || back.WallClockSec <= 0 {
		t.Errorf("manifest runtime block missing: %+v wall=%.3f", back.Runtime, back.WallClockSec)
	}

	// The acceptance criterion: >= 2 epoch samples whose summed
	// instruction counts equal the measured window.
	if len(back.Epochs) < 2 {
		t.Fatalf("got %d epoch samples, want >= 2", len(back.Epochs))
	}
	var sum int64
	for _, e := range back.Epochs {
		sum += e.EndInstr - e.StartInstr
	}
	if sum != back.Final.Instructions {
		t.Errorf("epoch samples sum to %d instructions, window measured %d", sum, back.Final.Instructions)
	}
}
