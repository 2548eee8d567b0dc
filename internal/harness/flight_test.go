package harness

import (
	"testing"
)

// TestFlightLookupAndPut: lookup reports a memoized value or a fill in
// flight without blocking, and put fills neither over a memoized value
// nor over a fill in flight, whose joiners get the fill's value.
func TestFlightLookupAndPut(t *testing.T) {
	var f flight[int]
	if _, ok, busy := f.lookup("k"); ok || busy {
		t.Fatalf("empty memo: ok=%v busy=%v, want neither", ok, busy)
	}

	filling, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := f.do("k", func() int {
			close(filling)
			<-release
			return 1
		})
		done <- v
	}()
	<-filling
	if _, ok, busy := f.lookup("k"); ok || !busy {
		t.Fatalf("fill in flight: ok=%v busy=%v, want busy", ok, busy)
	}
	f.put("k", 2)
	close(release)
	if v := <-done; v != 1 {
		t.Fatalf("fill returned %d, want 1", v)
	}
	if v, ok, busy := f.lookup("k"); !ok || busy || v != 1 {
		t.Fatalf("after the fill: v=%d ok=%v busy=%v, want the fill's 1", v, ok, busy)
	}

	f.put("k", 3)
	if v, shared := f.do("k", func() int { return 4 }); v != 1 || !shared {
		t.Fatalf("put replaced a memoized value: do = %d (shared %v), want 1", v, shared)
	}
	f.put("j", 5)
	if v, ok, _ := f.lookup("j"); !ok || v != 5 {
		t.Fatalf("put on a fresh key: v=%d ok=%v, want 5", v, ok)
	}
	if keys := f.keys(); len(keys) != 2 {
		t.Fatalf("keys = %v, want j and k", keys)
	}
}
