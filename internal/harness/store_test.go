package harness

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/obs"
	"graphmem/internal/sim"
	"graphmem/internal/store"
)

// renderStoredSweep renders Fig. 3 + Fig. 10 (the parallel-determinism
// suite's sweep) and a two-mix Fig. 14 on tiny mix windows — every run
// shape the door carries — on a fresh workbench backed by st (nil = no
// disk tier) and returns the rendered bytes, the metrics registry, and
// the final progress counts.
func renderStoredSweep(t *testing.T, st *store.Store) (string, *obs.Metrics, int, int) {
	t.Helper()
	p := fastBench()
	p.MixWarmup, p.MixMeasure = 100_000, 50_000
	wb := NewWorkbench(p)
	wb.Store = st
	wb.Metrics = obs.NewMetrics()
	if st != nil {
		wb.Metrics.AttachStore(st)
	}
	var buf bytes.Buffer
	wb.Fig3(WorkloadID{Kernel: "cc", Graph: "kron"}).Table().Render(&buf)
	wb.Fig10(subsetKron()).Table().Render(&buf)
	wb.Fig14(GenerateMixes(subsetKron(), 2, 14)).Table().Render(&buf)
	done, total, _, _ := wb.Reporter.Snapshot()
	return buf.String(), wb.Metrics, done, total
}

// TestStoreReportsByteIdentical is the tier's acceptance gate: a sweep
// rendered live, through a cold store, and through a warm store is
// byte-identical, and the warm pass executes zero simulations (every
// run — the points, the Fig. 3 profiling run, Fig. 14's isolated runs
// and mixes — is a store hit).
func TestStoreReportsByteIdentical(t *testing.T) {
	live, _, _, _ := renderStoredSweep(t, nil)

	dir := t.TempDir()
	cold, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldOut, coldM, coldDone, coldTotal := renderStoredSweep(t, cold)
	if coldOut != live {
		t.Errorf("cold-store sweep differs from live:\n--- live ---\n%s\n--- cold ---\n%s", live, coldOut)
	}
	if h, m := cold.Hits(), cold.Misses(); h != 0 || m == 0 {
		t.Errorf("cold pass: hits=%d misses=%d, want 0 hits and every point a miss", h, m)
	}
	_, coldFinished, _, coldStored := coldM.Counts()
	if coldFinished == 0 || coldStored != 0 {
		t.Errorf("cold pass: finished=%d stored=%d, want live runs and no store hits", coldFinished, coldStored)
	}
	entries, _, err := cold.Size()
	if err != nil {
		t.Fatal(err)
	}
	if entries != int(cold.Misses()) {
		t.Errorf("store holds %d entries after %d misses; every miss must publish", entries, cold.Misses())
	}

	// Warm: a fresh workbench and a fresh store handle over the same
	// directory, as a new process would see it.
	warm, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmOut, warmM, warmDone, warmTotal := renderStoredSweep(t, warm)
	if warmOut != live {
		t.Errorf("warm-store sweep differs from live:\n--- live ---\n%s\n--- warm ---\n%s", live, warmOut)
	}
	if h, m := warm.Hits(), warm.Misses(); m != 0 || h != cold.Misses() {
		t.Errorf("warm pass: hits=%d misses=%d, want every cold miss (%d) served as a hit", h, m, cold.Misses())
	}
	_, warmFinished, _, warmStored := warmM.Counts()
	if warmFinished != 0 {
		t.Errorf("warm pass executed %d live simulations, want 0", warmFinished)
	}
	if warmStored == 0 {
		t.Error("warm pass recorded no store hits in metrics")
	}
	// Progress accounting must close at every tier (store hits self-plan).
	if coldDone != coldTotal || warmDone != warmTotal {
		t.Errorf("progress counts did not close: cold %d/%d, warm %d/%d",
			coldDone, coldTotal, warmDone, warmTotal)
	}
}

// storeRunOnce sends triad.reg on the baseline — the point, or with
// cores > 1 the homogeneous mix — through a workbench backed by a fresh
// handle over dir, returning the value (*sim.Result or
// *sim.MultiResult), the entry's path in the store and the number of
// live simulations it took.
func storeRunOnce(t *testing.T, dir string, cores int) (res any, path string, finished int64) {
	t.Helper()
	st, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wb := NewWorkbench(fastBench())
	wb.Store = st
	wb.Metrics = obs.NewMetrics()
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	s := wb.Spec(wb.Profile.BaseConfig(cores), []WorkloadID{id, id, id, id}[:cores]...)
	if cores > 1 {
		res = wb.RunMix(s)
	} else {
		res = wb.Run(s)
	}
	_, finished, _, _ = wb.Metrics.Counts()
	return res, st.Path(s.StoreKey()), finished
}

// TestStoreDamageFallsBackToLive mirrors the checkpoint store's damage
// test at the harness level, for a point and for a mix: corrupted,
// truncated, and wrong-run entries silently fall back to a live run
// whose result matches the original, and the rerun heals the store
// entry.
func TestStoreDamageFallsBackToLive(t *testing.T) {
	damage := map[string]func(t *testing.T, path string, good any){
		"corrupt": func(t *testing.T, path string, _ any) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 1
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string, _ any) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// A well-framed payload for the wrong point or the wrong mix (hash
		// collision or an operator copying files between stores): the
		// shape's decode must reject it by identity, not checksum.
		"wrong point": func(t *testing.T, path string, good any) {
			var payload []byte
			var err error
			switch good := good.(type) {
			case *sim.Result:
				other := *good
				other.Workload = "pr.kron"
				payload, err = sim.EncodeResult(&other)
			case *sim.MultiResult:
				other := *good
				other.Names = append([]string{"pr.kron"}, good.Names[1:]...)
				payload, err = sim.EncodeMultiResult(&other)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, sim.ResultFraming().Encode(payload), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range damage {
		for _, shape := range []struct {
			suffix string
			cores  int
		}{{"", 1}, {" mix", mixCores}} {
			t.Run(name+shape.suffix, func(t *testing.T) {
				dir := t.TempDir()
				good, path, finished := storeRunOnce(t, dir, shape.cores)
				if finished != 1 {
					t.Fatalf("seeding pass ran %d simulations, want 1", finished)
				}
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("seeded store does not hold the run: %v", err)
				}
				mutate(t, path, good)

				rerun, _, finished := storeRunOnce(t, dir, shape.cores)
				if finished != 1 {
					t.Errorf("damaged entry did not fall back to a live run (finished=%d)", finished)
				}
				if !reflect.DeepEqual(good, rerun) {
					t.Errorf("recovered result differs from the original:\n good: %+v\nrerun: %+v", good, rerun)
				}
				// The rerun must have healed the entry: a third pass hits.
				healed, _, finished := storeRunOnce(t, dir, shape.cores)
				if finished != 0 {
					t.Errorf("healed entry missed (finished=%d)", finished)
				}
				if !reflect.DeepEqual(good, healed) {
					t.Error("healed result differs from the original")
				}
			})
		}
	}
}

// TestStoreConcurrentWorkbenches drives two workbenches (two store
// handles over one directory, as two processes would be) at the same
// point concurrently: the claim protocol lets exactly one simulate and
// the other returns the published result.
func TestStoreConcurrentWorkbenches(t *testing.T) {
	dir := t.TempDir()
	type outcome struct {
		res      any
		finished int64
	}
	ch := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, _, finished := storeRunOnce(t, dir, 1)
			ch <- outcome{res, finished}
		}()
	}
	a, b := <-ch, <-ch
	if a.finished+b.finished != 1 {
		t.Errorf("%d live simulations across two workbenches, want exactly 1 (claim dedup)",
			a.finished+b.finished)
	}
	if !reflect.DeepEqual(a.res, b.res) {
		t.Error("the two workbenches returned different results for one point")
	}
}

// TestCheckedRunsBypassStore pins the eligibility rule: a checked run,
// single- or multi-core, neither reads nor writes the store (the checker's value is the
// execution itself), and its checked result never leaks to disk.
func TestCheckedRunsBypassStore(t *testing.T) {
	st, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wb := NewWorkbench(fastBench())
	wb.Store = st
	wb.CheckLevel = check.Full
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	wb.RunSingle(wb.Profile.BaseConfig(1), id)
	wb.RunMix(wb.Spec(wb.Profile.BaseConfig(mixCores), id, id)) // two threads, two idle slots
	if h, m := st.Hits(), st.Misses(); h != 0 || m != 0 {
		t.Errorf("checked run touched the store: hits=%d misses=%d", h, m)
	}
	entries, _, err := st.Size()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 0 {
		t.Errorf("checked run published %d store entries, want 0", entries)
	}
}

// TestStoreServesOnlyTheRunAskedFor is the disk-tier collision the
// string-suffix keys had: a stored plain run must not answer the same
// point asked again with epoch telemetry, nor a recorded run one with
// another occupancy-sampling interval — each gets the series it asked
// for, from its own entry.
func TestStoreServesOnlyTheRunAskedFor(t *testing.T) {
	st, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	run := func(cfg sim.Config) *sim.Result {
		wb := NewWorkbench(fastBench()) // a fresh memo: only the store persists
		wb.Store = st
		return wb.RunSingle(cfg, id)
	}
	base := fastBench().BaseConfig(1)
	if plain := run(base); len(plain.Epochs) != 0 || plain.Recorder != nil {
		t.Fatalf("plain run carries telemetry: %+v", plain)
	}
	if ep := run(base.WithEpochInterval(100_000)); len(ep.Epochs) != 3 {
		t.Errorf("run with EpochInterval got %d epochs, want 3 (served the plain entry?)", len(ep.Epochs))
	}
	coarse, fine := run(base.WithFlightRecorder(100_000)), run(base.WithFlightRecorder(10_000))
	if coarse.Recorder == nil || fine.Recorder == nil ||
		coarse.Recorder.SampleEvery != 100_000 || fine.Recorder.SampleEvery != 10_000 {
		t.Errorf("recorded runs got intervals %+v / %+v, want 100000 / 10000", coarse.Recorder, fine.Recorder)
	}
	if h, m := st.Hits(), st.Misses(); h != 0 || m != 4 {
		t.Errorf("store saw %d hits / %d misses, want four distinct points", h, m)
	}
	if again := run(base.WithEpochInterval(100_000)); st.Hits() != 1 || len(again.Epochs) != 3 {
		t.Errorf("repeat of the epoch run: %d hits, %d epochs; want its own entry served", st.Hits(), len(again.Epochs))
	}
}
