package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
// disk tier) and returns the rendered bytes, its ledger, and the final
// progress counts.
func renderStoredSweep(t *testing.T, st *store.Store) (string, *obs.Metrics, int, int) {
	t.Helper()
	p := fastBench()
	p.MixWarmup, p.MixMeasure = 100_000, 50_000
	wb := NewWorkbench(p)
	wb.Store = st
	var buf bytes.Buffer
	wb.Fig3(WorkloadID{Kernel: "cc", Graph: "kron"}).Table().Render(&buf)
	wb.Fig10(subsetKron()).Table().Render(&buf)
	wb.Fig14(GenerateMixes(subsetKron(), 2, 14)).Table().Render(&buf)
	done, total, _, _ := wb.Metrics.Snapshot()
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

// TestWarmSweepPlansNothing: a cold sweep plans exactly the runs it
// simulates, at the live door; the same sweep on a fresh workbench over
// the store it filled is one store hit per point, no miss, and nothing
// planned or simulated, with the progress closing at every tier.
func TestWarmSweepPlansNothing(t *testing.T) {
	dir := t.TempDir()
	ids := []WorkloadID{
		{Kernel: "triad", Graph: "reg"},
		{Kernel: "matvec", Graph: "reg"},
		{Kernel: "stencil", Graph: "reg"},
	}
	sweep := func() (*store.Store, *obs.Metrics) {
		st, err := OpenResultStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		wb := NewWorkbench(fastBench())
		wb.Store = st
		wb.runAll(wb.specsFor(wb.BaseConfig(), ids))
		if done, total, _, _ := wb.Metrics.Snapshot(); done != len(ids) || total != len(ids) {
			t.Errorf("progress closed at %d/%d, want %d/%d", done, total, len(ids), len(ids))
		}
		return st, wb.Metrics
	}
	cold, coldM := sweep()
	if planned, finished, _, stored := coldM.Counts(); planned != int64(len(ids)) || finished != planned || stored != 0 {
		t.Errorf("cold sweep: planned=%d finished=%d stored=%d, want %d/%d/0", planned, finished, stored, len(ids), len(ids))
	}
	if h, m := cold.Hits(), cold.Misses(); h != 0 || m != int64(len(ids)) {
		t.Errorf("cold sweep: hits=%d misses=%d, want 0/%d", h, m, len(ids))
	}
	warm, warmM := sweep()
	if planned, finished, cached, stored := warmM.Counts(); planned != 0 || finished != 0 || cached != 0 || stored != int64(len(ids)) {
		t.Errorf("warm sweep: planned=%d finished=%d cached=%d stored=%d, want 0/0/0/%d", planned, finished, cached, stored, len(ids))
	}
	if h, m := warm.Hits(), warm.Misses(); h != int64(len(ids)) || m != 0 {
		t.Errorf("warm sweep: hits=%d misses=%d, want %d/0", h, m, len(ids))
	}
}

// TestStoreHealsJSONEntries: a store whose entries hold the JSON
// payloads of the codec before the binary one — the same keys, framing
// and StateVersion — is an ordinary miss per entry, healed by the live
// rerun, which republishes the entry in the binary codec. The next
// workbench hits every entry, and both passes render the no-store
// reports byte for byte.
func TestStoreHealsJSONEntries(t *testing.T) {
	live, _, _, _ := renderStoredSweep(t, nil)
	dir := t.TempDir()
	cold, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	renderStoredSweep(t, cold)

	// Rewrite every entry's payload as JSON of the value it holds.
	paths, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("cold pass left no entries (%v)", err)
	}
	framing := sim.ResultFraming()
	decode := func(path string) any {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := framing.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if r, err := sim.DecodeResult(payload); err == nil {
			return r
		}
		if m, err := sim.DecodeMultiResult(payload); err == nil {
			return m
		}
		if f := new(Fig3Result); store.Unmarshal(payload, f) == nil {
			return f
		}
		return nil
	}
	for _, path := range paths {
		v := decode(path)
		if v == nil {
			t.Fatalf("%s: no stored shape decodes it", path)
		}
		payload, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, framing.Encode(payload), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	healing, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, m, _, _ := renderStoredSweep(t, healing)
	if out != live {
		t.Errorf("sweep over JSON entries differs from live:\n--- live ---\n%s\n--- got ---\n%s", live, out)
	}
	if h, miss := healing.Hits(), healing.Misses(); h != 0 || miss != int64(len(paths)) {
		t.Errorf("JSON entries: hits=%d misses=%d, want 0 and %d", h, miss, len(paths))
	}
	if _, finished, _, _ := m.Counts(); finished == 0 {
		t.Error("JSON entries served without live runs")
	}
	for _, path := range paths {
		if decode(path) == nil {
			t.Errorf("%s: not republished in the binary codec", path)
		}
	}

	healed, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, m, _, _ = renderStoredSweep(t, healed)
	if out != live {
		t.Errorf("sweep over healed entries differs from live:\n--- live ---\n%s\n--- got ---\n%s", live, out)
	}
	if h, miss := healed.Hits(), healed.Misses(); h != int64(len(paths)) || miss != 0 {
		t.Errorf("healed entries: hits=%d misses=%d, want %d and 0", h, miss, len(paths))
	}
	if _, finished, _, _ := m.Counts(); finished != 0 {
		t.Errorf("healed store still ran %d simulations", finished)
	}
}

// TestFig3ResultCodec: a Fig. 3 profile round-trips through the store's
// codec, and its payload is no run result — benchmark code that walks a
// store's entries tells them apart by DecodeResult failing.
func TestFig3ResultCodec(t *testing.T) {
	live := &Fig3Result{Workload: WorkloadID{Kernel: "cc", Graph: "kron"},
		Labels: []string{"0", "(1e0,1e1]", "(1e5,1e6]"}, Prob: []float64{-1, 0.116, 0.976}, Samples: []int64{0, 12, 1 << 40}}
	data, err := store.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Fig3Result)
	if err := store.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("round trip: got %+v, want %+v", got, live)
	}
	liveJSON, _ := json.Marshal(live)
	if gotJSON, _ := json.Marshal(got); !bytes.Equal(gotJSON, liveJSON) {
		t.Errorf("JSON of the decoded profile differs: %s vs %s", gotJSON, liveJSON)
	}
	if _, err := sim.DecodeResult(data); err == nil {
		t.Error("a Fig. 3 payload decoded as a sim.Result")
	}
	if _, err := sim.DecodeMultiResult(data); err == nil {
		t.Error("a Fig. 3 payload decoded as a sim.MultiResult")
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
	return storeRunOn(st, cores)
}

// storeRunOn is storeRunOnce on a store handle the caller opened.
func storeRunOn(st *store.Store, cores int) (res any, path string, finished int64) {
	wb := NewWorkbench(fastBench())
	wb.Store = st
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

// TestStoreDamageFallsBackToLive mirrors internal/store's damage test
// at the harness level, for a point and for a mix: corrupted,
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

// TestStoreConcurrentWorkbenches drives two workbenches at the same
// point concurrently, on two store handles over one directory (as two
// processes would be) and on one shared handle (gmserved's shape): the
// claim file, the store's one serializer across workbenches, lets
// exactly one simulate and the other returns the published result.
func TestStoreConcurrentWorkbenches(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shared bool
	}{{"two handles", false}, {"one handle", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var handles [2]*store.Store
			for i := range handles {
				if i > 0 && tc.shared {
					handles[i] = handles[0]
					continue
				}
				st, err := OpenResultStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				handles[i] = st
			}
			type outcome struct {
				res      any
				finished int64
			}
			ch := make(chan outcome, 2)
			for _, h := range handles {
				go func() {
					res, _, finished := storeRunOn(h, 1)
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
		})
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

// TestHitPathJoinsAFillInFlight: a key whose fill is in flight is
// joined, never read from the store around the fill, even when the
// store holds its entry; the joiner gets the fill's value.
func TestHitPathJoinsAFillInFlight(t *testing.T) {
	dir := t.TempDir()
	id := WorkloadID{Kernel: "triad", Graph: "reg"}
	first, _, _ := storeRunOnce(t, dir, 1)
	want := first.(*sim.Result)

	st, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wb := NewWorkbench(fastBench())
	wb.Store = st
	s := wb.Spec(wb.Profile.BaseConfig(1), id)
	filling, release := make(chan struct{}), make(chan struct{})
	go wb.runs.do(s.Key(), func() any {
		close(filling)
		<-release
		return want
	})
	<-filling
	if _, ok := tryHit(wb, &s, pointShape); ok {
		t.Fatal("the hit path answered a key whose fill is in flight")
	}
	got := make(chan *sim.Result)
	go func() { got <- wb.Run(s) }()
	close(release)
	if r := <-got; r != want {
		t.Errorf("joiner got %p, want the fill's result %p", r, want)
	}
	if h, m := st.Hits(), st.Misses(); h != 0 || m != 0 {
		t.Errorf("store saw hits=%d misses=%d, want no lookup at all", h, m)
	}
}

// TestLockFreeReadKeepsSingleFlight: two workbenches share one store
// and run the same sweep at once from an empty directory. The lock-free
// hit path must not let both simulate a key: the live runs of the two
// ledgers sum to the distinct keys, the store counts each key as one
// miss, and both render the same bytes.
func TestLockFreeReadKeepsSingleFlight(t *testing.T) {
	st, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := []WorkloadID{
		{Kernel: "triad", Graph: "reg"},
		{Kernel: "matvec", Graph: "reg"},
		{Kernel: "stencil", Graph: "reg"},
	}
	const keys = 3 * 4 // Baseline and three SDC sizes per workload
	p := fastBench()
	p.Warmup, p.Measure = 100_000, 100_000
	type outcome struct {
		out                      string
		finished, cached, stored int64
	}
	ch := make(chan outcome, 2)
	for range 2 {
		go func() {
			wb := NewWorkbench(p)
			wb.Parallelism, wb.Store = 2, st
			var buf bytes.Buffer
			wb.Fig10(ids).Table().Render(&buf)
			_, finished, cached, stored := wb.Metrics.Counts()
			ch <- outcome{buf.String(), finished, cached, stored}
		}()
	}
	a, b := <-ch, <-ch
	if a.out != b.out {
		t.Errorf("the two workbenches rendered different bytes:\n%s\n---\n%s", a.out, b.out)
	}
	if live := a.finished + b.finished; live != keys {
		t.Errorf("%d live runs across both ledgers, want one per key (%d)", live, keys)
	}
	if served := a.cached + a.stored + b.cached + b.stored; served != keys {
		t.Errorf("%d runs served across both ledgers, want %d", served, keys)
	}
	if h, m := st.Hits(), st.Misses(); m != keys || h != keys {
		t.Errorf("store counted hits=%d misses=%d, want %d and %d", h, m, keys, keys)
	}
}
