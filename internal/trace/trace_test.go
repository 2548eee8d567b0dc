package trace

import (
	"testing"
	"testing/quick"

	"graphmem/internal/mem"
)

func TestTracerSitesAndNames(t *testing.T) {
	tr := New(&SliceSink{})
	a := tr.Site("load_oa")
	b := tr.Site("load_na")
	if a == b {
		t.Fatal("two sites share a PC")
	}
	if tr.SiteName(a) != "load_oa" || tr.SiteName(b) != "load_na" {
		t.Errorf("site names: %q %q", tr.SiteName(a), tr.SiteName(b))
	}
	if got := tr.SiteName(0xdead); got != "pc_0xdead" {
		t.Errorf("unknown PC name = %q", got)
	}
}

func TestTracerEmitsRecords(t *testing.T) {
	sink := &SliceSink{}
	tr := New(sink)
	pc := tr.Site("s")
	tr.Exec(3)
	s0 := tr.Load(pc, 0x1000, 4, NoDep)
	tr.Exec(2)
	s1 := tr.Load(pc, 0x2000, 4, s0)
	tr.Store(pc, 0x3000, 8, s1)
	if len(sink.Recs) != 3 {
		t.Fatalf("got %d records", len(sink.Recs))
	}
	r0, r1, r2 := sink.Recs[0], sink.Recs[1], sink.Recs[2]
	if r0.NonMem != 3 || r0.Write || r0.Size != 4 || r0.DepDist != 0 {
		t.Errorf("r0 = %+v", r0)
	}
	if r1.NonMem != 2 || r1.DepDist != 1 {
		t.Errorf("r1 = %+v", r1)
	}
	if !r2.Write || r2.Size != 8 || r2.DepDist != 1 {
		t.Errorf("r2 = %+v", r2)
	}
	if s0 != 0 || s1 != 1 {
		t.Errorf("sequence numbers %d %d", s0, s1)
	}
}

func TestTracerStopsWhenSinkDone(t *testing.T) {
	sink := &SliceSink{Limit: 2}
	tr := New(sink)
	pc := tr.Site("s")
	for i := 0; i < 10 && !tr.Done(); i++ {
		tr.Load(pc, mem.Addr(i*64), 4, NoDep)
	}
	if len(sink.Recs) != 2 {
		t.Errorf("got %d records, want 2", len(sink.Recs))
	}
	if !tr.Done() {
		t.Error("tracer not done after sink limit")
	}
}

func TestTracerDependencyPanicsOnFuture(t *testing.T) {
	tr := New(&SliceSink{})
	pc := tr.Site("s")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on future dependency")
		}
	}()
	tr.Load(pc, 0x1000, 4, 5)
}

func TestTracerNonMemSaturates(t *testing.T) {
	sink := &SliceSink{}
	tr := New(sink)
	pc := tr.Site("s")
	tr.Exec(100000)
	tr.Load(pc, 0x1000, 4, NoDep)
	if sink.Recs[0].NonMem != 0xffff {
		t.Errorf("NonMem = %d, want saturation at 65535", sink.Recs[0].NonMem)
	}
}

func TestCountingSink(t *testing.T) {
	c := &CountingSink{Limit: 3}
	tr := New(c)
	pc := tr.Site("s")
	tr.Exec(4)
	tr.Load(pc, 0x0, 4, NoDep)
	tr.Store(pc, 0x40, 4, NoDep)
	tr.Load(pc, 0x80, 4, NoDep)
	if !tr.Done() {
		t.Error("tracer should be done at limit")
	}
	if c.Records != 3 || c.Loads != 2 || c.Stores != 1 {
		t.Errorf("counts: %+v", c)
	}
	if c.Instructions != 4+3 {
		t.Errorf("Instructions = %d, want 7", c.Instructions)
	}
}

type progRecorder struct {
	CountingSink
	got []uint64
}

func (p *progRecorder) SetProgress(e uint64) { p.got = append(p.got, e) }

func TestProgressForwarding(t *testing.T) {
	p := &progRecorder{}
	tr := New(p)
	tr.Progress(10)
	tr.Progress(20)
	if len(p.got) != 2 || p.got[0] != 10 || p.got[1] != 20 {
		t.Errorf("progress = %v", p.got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stride uint64
		want   int
	}{
		{0, 0}, {1, 1}, {2, 2}, {10, 2}, {11, 3}, {100, 3}, {101, 4},
		{1000, 4}, {1001, 5}, {10000, 5}, {100000, 6}, {1000000, 7},
		{1000001, 8}, {1 << 40, 8},
	}
	for _, c := range cases {
		if got := BucketOf(c.stride); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.stride, got, c.want)
		}
	}
}

func TestBucketLabels(t *testing.T) {
	want := []string{"0", "1", "(1,1e1]", "(1e1,1e2]", "(1e2,1e3]", "(1e3,1e4]", "(1e4,1e5]", "(1e5,1e6]", ">1e6"}
	for i := 0; i < StrideBuckets; i++ {
		if BucketLabel(i) != want[i] {
			t.Errorf("BucketLabel(%d) = %q, want %q", i, BucketLabel(i), want[i])
		}
	}
}

func TestBucketOfMonotone(t *testing.T) {
	f := func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		return BucketOf(a) <= BucketOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrideDRAMProfiler(t *testing.T) {
	p := NewStrideDRAMProfiler()
	// First access per PC establishes history only.
	p.Observe(1, 100, mem.ServedDRAM)
	if p.Samples(0) != 0 {
		t.Error("first access should not be bucketed")
	}
	p.Observe(1, 101, mem.ServedL1D)     // stride 1, cache
	p.Observe(1, 102, mem.ServedDRAM)    // stride 1, DRAM
	p.Observe(1, 100002, mem.ServedDRAM) // stride 99900 -> bucket (1e4,1e5]
	if p.Samples(1) != 2 {
		t.Errorf("bucket1 samples = %d", p.Samples(1))
	}
	if got := p.DRAMProbability(1); got != 0.5 {
		t.Errorf("bucket1 P(DRAM) = %g", got)
	}
	if p.Samples(6) != 1 || p.DRAMProbability(6) != 1 {
		t.Errorf("large-stride bucket: n=%d p=%g", p.Samples(6), p.DRAMProbability(6))
	}
	if p.DRAMProbability(8) != -1 {
		t.Error("empty bucket should report -1")
	}
	// Strides are per-PC: a different PC has independent history.
	p.Observe(2, 5000, mem.ServedDRAM)
	if p.Samples(8) != 0 {
		t.Error("first access of new PC was bucketed")
	}
}
