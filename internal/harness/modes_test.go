package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/mem"
	"graphmem/internal/sim"
)

// TestModeMatrix walks {1, 4 cores} x {sampling off/on} x {check,
// epochs, recorder, bound–weave, store}: every cell either runs and
// shows its mode's evidence, or is rejected with a stated reason by the
// one place mode composition lives (sim.Config.Validate, with
// Cacheable for the result store) — and NewSystem refuses exactly what
// Validate refuses, with the same text. The table is the contract; it
// is written out, not derived, so a rule change must edit it.
func TestModeMatrix(t *testing.T) {
	const runs = "" // no reason: the cell must run
	cells := []struct {
		cores   int
		sampled bool
		mode    string
		reason  string
	}{
		{1, false, "check", runs},
		{1, false, "epochs", runs},
		{1, false, "recorder", runs},
		{1, false, "bound-weave", runs},
		{1, false, "store", runs},
		{1, true, "check", "sampling cannot run under the checker"},
		{1, true, "epochs", "sampling cannot run with epoch telemetry"},
		{1, true, "recorder", "sampling cannot run with the flight recorder"},
		{1, true, "bound-weave", "sampling cannot run on the bound-weave engine"},
		{1, true, "store", runs},
		{4, false, "check", runs},
		{4, false, "epochs", runs},
		{4, false, "recorder", runs},
		{4, false, "bound-weave", runs},
		{4, false, "bound-weave+observer", "the load observer cannot run on the bound-weave engine"},
		{4, false, "store", runs},
		{4, true, "check", "sampling requires a single-core machine"},
		{4, true, "epochs", "sampling requires a single-core machine"},
		{4, true, "recorder", "sampling requires a single-core machine"},
		{4, true, "bound-weave", "sampling requires a single-core machine"},
		{4, true, "store", "sampling requires a single-core machine"},
	}
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	profile := fastBench()
	profile.Warmup, profile.Measure = 50_000, 100_000
	for _, c := range cells {
		name := map[bool]string{false: "detailed", true: "sampled"}[c.sampled]
		t.Run(fmt.Sprintf("%s/%s/%dcore", name, c.mode, c.cores), func(t *testing.T) {
			wb := NewWorkbench(profile)
			if c.sampled {
				wb.Sampling = samplingPlan()
			}
			cfg := profile.BaseConfig(c.cores)
			switch c.mode {
			case "check":
				wb.CheckLevel = check.OracleOnly
			case "epochs":
				cfg = cfg.WithEpochInterval(20_000)
			case "recorder":
				cfg = cfg.WithFlightRecorder(0)
			case "bound-weave", "bound-weave+observer":
				cfg = cfg.WithBoundWeave(0, 2)
			}
			cfg, err := wb.Configure(cfg)
			if err == nil && c.mode == "store" {
				err = cfg.Cacheable()
			}

			if c.mode == "bound-weave+observer" {
				// The observer is set on a built machine, not in the Config,
				// so this cell is refused at run start instead of by Validate.
				if err != nil {
					t.Fatal(err)
				}
				sys := sim.NewSystem(cfg, make([]sim.Workload, c.cores))
				sys.Observer = func(int, uint64, mem.BlockAddr, mem.ServedBy) {}
				defer func() {
					if p, _ := recover().(string); !strings.Contains(p, c.reason) {
						t.Errorf("RunMultiCoreOn panicked with %q, want %q", p, c.reason)
					}
				}()
				sim.RunMultiCoreOn(sys, make([]sim.Workload, c.cores))
				t.Fatal("an observed bound-weave run started (on which engine?)")
			}
			if c.reason != runs {
				if err == nil || !strings.Contains(err.Error(), c.reason) {
					t.Fatalf("want rejection %q, got %v", c.reason, err)
				}
				if cfg.Validate() != nil {
					defer func() {
						if p := recover(); p != err.Error() {
							t.Errorf("NewSystem panicked with %v, want Validate's %q", p, err)
						}
					}()
					sim.NewSystem(cfg, make([]sim.Workload, c.cores))
					t.Error("NewSystem built a machine Validate rejects")
				}
				return
			}
			if err != nil {
				t.Fatalf("cell must run, rejected: %v", err)
			}

			if c.mode == "store" {
				st, err := OpenResultStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				wb.Store = st
				// The point, or the homogeneous mix, through the door.
				run := func(wb *Workbench) (res any, sampled bool) {
					s := wb.Spec(profile.BaseConfig(c.cores), []WorkloadID{id, id, id, id}[:c.cores]...)
					if c.cores > 1 {
						return wb.RunMix(s), false
					}
					r := wb.Run(s)
					return r, r.Sampling != nil
				}
				first, sampled := run(wb)
				second, _ := run(wb.WithProfile(profile)) // a fresh memo over the same store
				_, simulated, _, _ := wb.Metrics.Counts()
				if st.Hits() != 1 || simulated != 1 || !reflect.DeepEqual(first, second) {
					t.Errorf("second run: %d store hits, %d simulations in all, results equal %v",
						st.Hits(), simulated, reflect.DeepEqual(first, second))
				}
				if sampled != c.sampled {
					t.Errorf("stored run sampled = %v, want %v", sampled, c.sampled)
				}
				return
			}
			if c.cores == 1 && c.mode != "bound-weave" {
				res := sim.RunSingleCore(cfg, wb.Workload(id, 0))
				evidence := map[string]bool{
					"check":    res.Check.LoadsChecked > 0,
					"epochs":   len(res.Epochs) > 1,
					"recorder": res.Recorder != nil,
				}
				if res.Stats.Instructions == 0 || !evidence[c.mode] {
					t.Errorf("ran without %s evidence: %+v", c.mode, res)
				}
				return
			}
			ws := make([]sim.Workload, c.cores)
			for i := range ws {
				ws[i] = wb.Workload(id, i)
			}
			res := sim.RunMultiCore(cfg, ws)
			evidence := map[string]bool{
				"check":       res.Check.LoadsChecked > 0,
				"epochs":      len(res.Epochs[c.cores-1]) > 1,
				"recorder":    res.Recorders[c.cores-1] != nil,
				"bound-weave": cfg.Quantum == sim.DefaultQuantum,
			}
			if res.PerCore[c.cores-1].Instructions == 0 || !evidence[c.mode] {
				t.Errorf("ran without %s evidence: %+v", c.mode, res)
			}
		})
	}
}
