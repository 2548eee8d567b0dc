package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/obs"
	"graphmem/internal/sample"
	"graphmem/internal/stats"
	"graphmem/internal/store"
)

// fillCounters gives every int64 counter of a CoreStats a distinct
// value, from seed on, so a dropped or swapped field shows.
func fillCounters(s *stats.CoreStats, seed int64) {
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Struct {
				fill(f)
			} else {
				f.SetInt(seed * seed)
				seed++
			}
		}
	}
	fill(reflect.ValueOf(s).Elem())
}

// fullRecorder is a flight-recorder summary with every slice in use.
func fullRecorder(seed int64) *obs.RecSummary {
	hist := obs.HistSummary{Count: seed, Mean: 41.5, Max: 900, P50: 30, P90: 200, P99: 800, Buckets: []int64{0, 3, seed}}
	var occ obs.OccSample
	for i := range occ.MSHR {
		occ.MSHR[i], occ.Served[i] = int32(i), seed<<i
	}
	return &obs.RecSummary{
		SampleEvery: 1000, LoadToUse: hist,
		Levels:   []obs.LevelSummary{{Level: "L1D", Served: seed, Latency: hist}, {Level: "DRAM", Served: 7}},
		LPAverse: seed, LPFriendly: -seed,
		MSHR:    []obs.MSHRSummary{{Level: "L1D", Allocs: 12, AvgOccupancy: 1.25, MaxOccupancy: 8, Stalls: 1, StallCycles: 40}},
		DRAM:    obs.DRAMSummary{Latency: hist, RowHits: 5, RowMisses: 6, RowConflicts: 7},
		Samples: []obs.OccSample{occ, {Instr: 1, Quantum: 3}},
		Quanta:  2,
	}
}

// fullResult is a Result with every field set, -0 among its floats.
func fullResult() *Result {
	r := &Result{Config: "sdclp", Workload: "pr.kron", Reruns: 3,
		Check: check.Summary{Level: "full", LoadsChecked: 1 << 40, Violations: 2, Details: []check.Violation{
			{Kind: "stale-load", Core: 0, PC: 0xdead_beef, Blk: 1 << 50, Msg: "load saw version 3, want 4"},
			{Kind: "invariant", Core: -1, Msg: "ünïcode"},
		}},
		Recorder: fullRecorder(11),
		Sampling: &sample.Estimate{Samples: 9, DetailedInstructions: 90_000, CheckpointHit: true,
			IPC:          stats.Interval{Mean: 1.125, HalfWidth: math.Copysign(0, -1), N: 9},
			L1DemandMPKI: stats.Interval{Mean: 33.3, HalfWidth: 0.1, N: 9},
			L2MPKI:       stats.Interval{Mean: 1e-300, N: 9},
			LLCMPKI:      stats.Interval{Mean: math.MaxFloat64, N: 9}},
	}
	fillCounters(&r.Stats, 1)
	r.Epochs = make([]obs.EpochSample, 2)
	for i := range r.Epochs {
		e := &r.Epochs[i]
		e.Index, e.StartInstr, e.EndInstr = i, int64(i)*50_000, int64(i+1)*50_000
		fillCounters(&e.Stats, int64(100*i))
	}
	return r
}

// fullMultiResult is a three-slot mix with an idle middle slot: an ""
// name, zero stats, nil epochs and a nil recorder.
func fullMultiResult() *MultiResult {
	m := &MultiResult{Config: "sdclp", Names: []string{"pr.kron", "", "cc.urand"},
		PerCore:   make([]stats.CoreStats, 3),
		Epochs:    [][]obs.EpochSample{{{Index: 0, EndInstr: 10}}, nil, {}},
		Check:     check.Summary{Level: "basic", StoresTracked: 4},
		Recorders: []*obs.RecSummary{fullRecorder(1), nil, fullRecorder(2)},
	}
	fillCounters(&m.PerCore[0], 1)
	fillCounters(&m.PerCore[2], 500)
	return m
}

// roundTrip checks a stored value comes back deeply equal, renders the
// same -json manifest bytes, and re-encodes to the same payload.
func roundTrip[R any](t *testing.T, live *R, encode func(*R) ([]byte, error), decode func([]byte) (*R, error)) *R {
	t.Helper()
	data, err := encode(live)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, live)
	}
	liveJSON, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON, err := json.Marshal(got); err != nil || !bytes.Equal(gotJSON, liveJSON) {
		t.Fatalf("JSON of the decoded value differs from the live one's (err %v)", err)
	}
	if again, err := encode(got); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding differs (err %v)", err)
	}
	return got
}

func TestResultCodecRoundTrip(t *testing.T) {
	got := roundTrip(t, fullResult(), EncodeResult, DecodeResult)
	if !math.Signbit(got.Sampling.IPC.HalfWidth) {
		t.Error("-0 lost its sign")
	}
	roundTrip(t, &Result{Config: "baseline", Workload: "triad.reg"}, EncodeResult, DecodeResult)

	// NaN and ±Inf, which JSON cannot carry at all, come back bit for bit.
	r := fullResult()
	r.Sampling.IPC.Mean, r.Sampling.L2MPKI.HalfWidth, r.Recorder.LoadToUse.Mean = math.NaN(), math.Inf(1), math.Inf(-1)
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]float64{{dec.Sampling.IPC.Mean, r.Sampling.IPC.Mean},
		{dec.Sampling.L2MPKI.HalfWidth, r.Sampling.L2MPKI.HalfWidth}, {dec.Recorder.LoadToUse.Mean, r.Recorder.LoadToUse.Mean}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Errorf("float %v came back as %v", p[1], p[0])
		}
	}
}

func TestMultiResultCodecRoundTrip(t *testing.T) {
	got := roundTrip(t, fullMultiResult(), EncodeMultiResult, DecodeMultiResult)
	if got.Recorders[1] != nil || got.Epochs[1] != nil || got.Epochs[2] == nil {
		t.Error("nil and empty entries did not come back as they were")
	}
	if _, err := DecodeResult(mustEncode(t, EncodeMultiResult, got)); err == nil {
		t.Error("a MultiResult payload decoded as a Result")
	}
	if _, err := DecodeMultiResult(mustEncode(t, EncodeResult, fullResult())); err == nil {
		t.Error("a Result payload decoded as a MultiResult")
	}
}

func mustEncode[R any](t testing.TB, encode func(*R) ([]byte, error), r *R) []byte {
	t.Helper()
	data, err := encode(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// BenchmarkResultCodec encodes and decodes the fully populated Result:
// what a cold sweep pays per stored point and a warm one per hit.
func BenchmarkResultCodec(b *testing.B) {
	r := fullResult()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := EncodeResult(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeResult(data); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeResult feeds arbitrary payloads to both result decoders.
// Neither may panic or allocate for a length the input cannot hold, and
// a payload that decodes must be exactly the encoding of its value.
func FuzzDecodeResult(f *testing.F) {
	full := mustEncode(f, EncodeResult, fullResult())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(mustEncode(f, EncodeMultiResult, fullMultiResult()))
	// A Fig. 3 profile (harness.Fig3Result's layout: the fingerprint
	// hashes field names and kinds, not type names).
	fig3, err := store.Marshal(&struct {
		Workload struct{ Kernel, Graph string }
		Labels   []string
		Prob     []float64
		Samples  []int64
	}{Labels: []string{"0", "(1e0,1e1]"}, Prob: []float64{-1, 0.116}, Samples: []int64{0, 12}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fig3)
	// The JSON payload the store held before the binary codec.
	parent, err := json.Marshal(&Result{Config: "baseline", Workload: "triad.reg"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeResult(data); err == nil {
			if again := mustEncode(t, EncodeResult, r); !bytes.Equal(again, data) {
				t.Fatalf("decoded Result re-encodes to %x, want %x", again, data)
			}
		}
		if m, err := DecodeMultiResult(data); err == nil {
			if again := mustEncode(t, EncodeMultiResult, m); !bytes.Equal(again, data) {
				t.Fatalf("decoded MultiResult re-encodes to %x, want %x", again, data)
			}
		}
	})
}
