package store

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, testFraming)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// published reports whether the key has an entry on disk: a stat, no
// decode, no counters, no recency refresh.
func published(s *Store, key string) bool {
	_, err := os.Stat(s.Path(key))
	return err == nil
}

func TestStoreMissThenHit(t *testing.T) {
	s := openTest(t, t.TempDir())
	payload, commit := s.Acquire("k1")
	if payload != nil {
		t.Fatal("fresh store returned a payload")
	}
	if err := commit([]byte("result-1")); err != nil {
		t.Fatal(err)
	}
	got, commit2 := s.Acquire("k1")
	if !bytes.Equal(got, []byte("result-1")) {
		t.Fatalf("hit returned %q", got)
	}
	if err := commit2(nil); err != nil {
		t.Fatal(err)
	}
	if h, m := s.Hits(), s.Misses(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
	if !published(s, "k1") || published(s, "k2") {
		t.Fatal("the published set disagrees with the commits")
	}
}

// TestStorePeek: Peek counts a hit only for a payload its accept takes,
// never a miss, and serves a published entry while a producer sits
// between Acquire and commit.
func TestStorePeek(t *testing.T) {
	s := openTest(t, t.TempDir())
	accept := func(want string) func([]byte) bool {
		return func(p []byte) bool { return string(p) == want }
	}
	if s.Peek("k", accept("v")) {
		t.Fatal("Peek hit on an empty store")
	}
	_, commit := s.Acquire("k")
	if err := commit([]byte("v")); err != nil {
		t.Fatal(err)
	}
	if s.Peek("k", accept("other")) {
		t.Fatal("Peek reported a hit its accept refused")
	}
	if h, m := s.Hits(), s.Misses(); h != 0 || m != 1 {
		t.Fatalf("after a refused peek: hits=%d misses=%d, want 0/1", h, m)
	}
	// A producer between Acquire and commit: the published entry is still
	// served.
	_, commit = s.Acquire("k")
	if !s.Peek("k", accept("v")) {
		t.Fatal("Peek missed a published entry")
	}
	if err := commit(nil); err != nil {
		t.Fatal(err)
	}
	if h, m := s.Hits(), s.Misses(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", h, m)
	}
}

func TestStoreAbortedCommitPublishesNothing(t *testing.T) {
	s := openTest(t, t.TempDir())
	if payload, commit := s.Acquire("k"); payload != nil {
		t.Fatal("fresh store returned a payload")
	} else if err := commit(nil); err != nil {
		t.Fatal(err)
	}
	if published(s, "k") {
		t.Fatal("aborted commit published an entry")
	}
	// The claim must have been released: a second miss can claim again.
	if _, err := os.Stat(s.claimPath("k")); !os.IsNotExist(err) {
		t.Fatalf("claim file survived the aborted commit: %v", err)
	}
	if payload, commit := s.Acquire("k"); payload != nil {
		t.Error("aborted commit still served a payload")
	} else {
		commit(nil)
	}
	if m := s.Misses(); m != 2 {
		t.Errorf("misses %d, want 2", m)
	}
}

// TestStoreRejectsDamagedFiles: corrupted, truncated, and stale-version
// entries (re-framed, or the version byte rewritten in place) all read as
// misses (never an error, never a poisoned payload) and are overwritten
// by the next commit.
func TestStoreRejectsDamagedFiles(t *testing.T) {
	damage := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"corrupt payload", func(d []byte) []byte { return flipBit(d, len(d)-1) }},
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"stale version", func(d []byte) []byte {
			stale := Framing{Magic: testFraming.Magic, Version: testFraming.Version + 1}
			return stale.Encode([]byte("payload"))
		}},
		{"version byte rewritten", func(d []byte) []byte { d[8] = 0xFE; return d }},
		{"empty file", func(d []byte) []byte { return nil }},
	}
	for _, tc := range damage {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, t.TempDir())
			_, commit := s.Acquire("k")
			if err := commit([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			good, err := os.ReadFile(s.Path("k"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.Path("k"), tc.mut(good), 0o644); err != nil {
				t.Fatal(err)
			}
			payload, commit := s.Acquire("k")
			if payload != nil {
				t.Fatalf("damaged entry surfaced a payload: %q", payload)
			}
			if err := commit([]byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			got, commit3 := s.Acquire("k")
			if !bytes.Equal(got, []byte("recomputed")) {
				t.Fatalf("recovery commit not readable: %q", got)
			}
			commit3(nil)
		})
	}
}

// TestStoreConcurrentSameKeyWriters drives many goroutines at one key:
// exactly one computes (single-flight), the rest hit its committed
// payload, and the store never surfaces a partial or mixed file.
func TestStoreConcurrentSameKeyWriters(t *testing.T) {
	s := openTest(t, t.TempDir())
	const n = 16
	var computes int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, commit := s.Acquire("shared")
			if payload == nil {
				mu.Lock()
				computes++
				mu.Unlock()
				if err := commit([]byte("the one true payload")); err != nil {
					t.Error(err)
				}
				return
			}
			if !bytes.Equal(payload, []byte("the one true payload")) {
				t.Errorf("joiner read %q", payload)
			}
			commit(nil)
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("%d goroutines computed the key, want exactly 1", computes)
	}
	if h, m := s.Hits(), s.Misses(); h != n-1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", h, m, n-1)
	}
}

// TestStoreCrossProcessClaim simulates two processes (two Store handles
// on one directory): the loser of the claim race waits for the winner's
// publication and returns it as a hit.
func TestStoreCrossProcessClaim(t *testing.T) {
	dir := t.TempDir()
	winner := openTest(t, dir)
	loser := openTest(t, dir)
	loser.claimWait = 5 * time.Second

	p, commitW := winner.Acquire("k")
	if p != nil {
		t.Fatal("winner hit on an empty store")
	}
	done := make(chan []byte, 1)
	go func() {
		payload, commit := loser.Acquire("k")
		commit(nil)
		done <- payload
	}()
	// Give the loser time to lose the claim race and start polling,
	// then publish.
	time.Sleep(100 * time.Millisecond)
	if err := commitW([]byte("winner's result")); err != nil {
		t.Fatal(err)
	}
	select {
	case payload := <-done:
		if !bytes.Equal(payload, []byte("winner's result")) {
			t.Fatalf("loser got %q (nil means it gave up and would recompute)", payload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loser never returned")
	}
}

// TestStoreClaimZeroWaitFallsBackToCompute pins the degraded mode: with
// claimWait 0 a lost claim means compute-it-yourself, duplicating work
// but never blocking or failing.
func TestStoreClaimZeroWaitFallsBackToCompute(t *testing.T) {
	dir := t.TempDir()
	winner := openTest(t, dir)
	loser := openTest(t, dir)
	loser.claimWait = 0

	_, commitW := winner.Acquire("k")
	payload, commitL := loser.Acquire("k")
	if payload != nil {
		t.Fatal("loser hit before anything was published")
	}
	if err := commitL([]byte("loser's result")); err != nil {
		t.Fatal(err)
	}
	commitW(nil)
	got, c := loser.Acquire("k")
	c(nil)
	if !bytes.Equal(got, []byte("loser's result")) {
		t.Fatalf("published entry is %q", got)
	}
}

func TestStoreReject(t *testing.T) {
	s := openTest(t, t.TempDir())
	_, commit := s.Acquire("k")
	commit([]byte("colliding payload"))
	p, c := s.Acquire("k")
	if p == nil {
		t.Fatal("expected a hit")
	}
	s.Reject("k")
	c(nil)
	if published(s, "k") {
		t.Fatal("rejected entry still published")
	}
	if h, m := s.Hits(), s.Misses(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d after Reject, want 0/2", h, m)
	}
}

func TestStoreGCAndSizeCap(t *testing.T) {
	s := openTest(t, t.TempDir())
	var size int64
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("k%d", i)
		_, commit := s.Acquire(key)
		if err := commit(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(s.Path(key)); err == nil && size == 0 {
			size = fi.Size()
		}
		// Space mtimes out so LRU order is deterministic even on
		// coarse-grained filesystems.
		old := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(s.Path(key), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 (the oldest) via a hit: it must survive the GC that
	// evicts by recency.
	_, c := s.Acquire("k0")
	c(nil)

	removed, freed, err := s.GC(3 * size)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 || freed != 3*size {
		t.Fatalf("GC removed %d entries (%d bytes), want 3 (%d)", removed, freed, 3*size)
	}
	if !published(s, "k0") {
		t.Fatal("LRU-refreshed entry was evicted")
	}
	for _, key := range []string{"k1", "k2", "k3"} {
		if published(s, key) {
			t.Fatalf("%s survived GC, expected eviction (oldest-first)", key)
		}
	}
	if s.Evictions() != 3 {
		t.Fatalf("evictions=%d, want 3", s.Evictions())
	}

	// The write-path cap: committing with a cap set evicts to fit.
	s.SetMaxBytes(2 * size)
	_, commit := s.Acquire("fresh")
	if err := commit(bytes.Repeat([]byte{9}, 100)); err != nil {
		t.Fatal(err)
	}
	entries, total, err := s.Size()
	if err != nil {
		t.Fatal(err)
	}
	if total > 2*size || entries != 2 {
		t.Fatalf("after capped commit: %d entries, %d bytes (cap %d)", entries, total, 2*size)
	}
	if !published(s, "fresh") {
		t.Fatal("the just-committed entry must survive its own cap enforcement")
	}
}

// TestStoreGCRemovesOrphanedTempFiles plants what a writer killed
// between CreateTemp and Rename leaves behind: GC deletes the temp file
// older than claimTTL, keeps the fresh one (a live writer's) and every
// published entry.
func TestStoreGCRemovesOrphanedTempFiles(t *testing.T) {
	s := openTest(t, t.TempDir())
	_, commit := s.Acquire("k")
	if err := commit([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	old, fresh := s.Path("k")+".tmp111", s.Path("k")+".tmp222"
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, bytes.Repeat([]byte{1}, 100), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * s.claimTTL)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}

	removed, freed, err := s.GC(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || freed != 100 {
		t.Errorf("GC removed %d entries, freed %d bytes; want 0 entries and the orphan's 100 bytes", removed, freed)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived GC: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("a live writer's temp file was removed: %v", err)
	}
	if !published(s, "k") || s.Evictions() != 0 {
		t.Errorf("GC touched the published entry (contains %v, evictions %d)", published(s, "k"), s.Evictions())
	}
}

// TestStoreGCRemovesOrphanedClaims plants the claim files a process
// that crashed between claiming and committing leaves behind: GC
// deletes the one older than claimTTL, keeps the fresh one (a live
// owner's) and every published entry.
func TestStoreGCRemovesOrphanedClaims(t *testing.T) {
	s := openTest(t, t.TempDir())
	_, commit := s.Acquire("k")
	if err := commit([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	old, fresh := s.claimPath("crashed"), s.claimPath("running")
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, bytes.Repeat([]byte{1}, 10), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * s.claimTTL)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}

	removed, freed, err := s.GC(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || freed != 10 {
		t.Errorf("GC removed %d entries, freed %d bytes; want 0 entries and the stale claim's 10 bytes", removed, freed)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Errorf("orphaned claim survived GC: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("a live owner's claim was removed: %v", err)
	}
	if !published(s, "k") || s.Evictions() != 0 {
		t.Errorf("GC touched the published entry (contains %v, evictions %d)", published(s, "k"), s.Evictions())
	}
}

// TestStoreHitRecency pins when a hit writes its entry's mtime, the
// LRU clock: only when it is more than a second stale. A fresher entry,
// or one stamped in the future, keeps its mtime to the nanosecond, so
// the hit wrote nothing.
func TestStoreHitRecency(t *testing.T) {
	cases := []struct {
		name    string
		age     time.Duration
		refresh bool
	}{
		{"10s old", 10 * time.Second, true},
		{"0.5s old", 500 * time.Millisecond, false},
		{"1h ahead", -time.Hour, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, t.TempDir())
			_, commit := s.Acquire("k")
			if err := commit([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			stamp := time.Now().Add(-tc.age).Truncate(time.Microsecond)
			if err := os.Chtimes(s.Path("k"), stamp, stamp); err != nil {
				t.Fatal(err)
			}
			before := time.Now()
			if p, c := s.Acquire("k"); p == nil {
				t.Fatal("published entry missed")
			} else {
				c(nil)
			}
			fi, err := os.Stat(s.Path("k"))
			if err != nil {
				t.Fatal(err)
			}
			switch mtime := fi.ModTime(); {
			case tc.refresh && mtime.Before(before.Add(-time.Second)):
				t.Errorf("hit left a %v-old mtime at %v, want it refreshed", tc.age, mtime)
			case !tc.refresh && !mtime.Equal(stamp):
				t.Errorf("hit rewrote the mtime %v as %v, want it untouched", stamp, mtime)
			}
		})
	}
}

// TestStoreDirectoryEntryMisses: a directory under an entry's name is
// an ordinary miss, never a panic or a payload. (Empty and truncated
// files are TestStoreRejectsDamagedFiles' cases.)
func TestStoreDirectoryEntryMisses(t *testing.T) {
	s := openTest(t, t.TempDir())
	if err := os.Mkdir(s.Path("k"), 0o755); err != nil {
		t.Fatal(err)
	}
	payload, commit := s.Acquire("k")
	if payload != nil {
		t.Errorf("directory entry surfaced a payload: %q", payload)
	}
	if err := commit(nil); err != nil {
		t.Fatal(err)
	}
	if h, m := s.Hits(), s.Misses(); h != 0 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 0/1", h, m)
	}
}

// BenchmarkStoreAcquireHit is one warm point's store cost: a hit on a
// fresh entry of a stored result's size, read, checked and released.
func BenchmarkStoreAcquireHit(b *testing.B) {
	s, err := Open(b.TempDir(), testFraming)
	if err != nil {
		b.Fatal(err)
	}
	_, commit := s.Acquire("k")
	if err := commit(bytes.Repeat([]byte{7}, 2048)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		p, c := s.Acquire("k")
		if p == nil {
			b.Fatal("miss")
		}
		c(nil)
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"1234", 1234, true},
		{"4K", 4096, true},
		{"4k", 4096, true},
		{"2M", 2 << 20, true},
		{"3G", 3 << 30, true},
		{"-1", 0, false},
		{"12Q", 0, false},
		{"M", 0, false},
		{"8589934591G", 8589934591 << 30, true},
		// Products past MaxInt64 are refused, not wrapped: a wrapped cap
		// is negative (GC deletes everything) or MinInt64.
		{"8589934592G", 0, false},
		{"9000000000G", 0, false},
		{"9007199254740992K", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseSize(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	// The error quotes the value as typed, suffix included.
	if _, err := ParseSize("4.5G"); err == nil || !strings.Contains(err.Error(), `"4.5G"`) {
		t.Errorf("ParseSize(\"4.5G\") error %v does not quote the input as typed", err)
	}
}
