package store

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store is a disk-backed, content-addressed blob store: one framed file
// per key under a directory. Keys are caller-derived content addresses
// (hashes over everything that identifies the payload), so the store
// itself never interprets payloads beyond the framing checksum.
//
// Concurrency discipline:
//
//   - Per-key single-flight across goroutines: Acquire holds a per-key
//     mutex from lookup to commit, so two goroutines computing the same
//     key serialize and the second one hits the first one's file.
//   - Lock-free reads: Peek serves a published entry without the key's
//     lock, since publication is atomic; a reader that finds none goes
//     on to Acquire.
//   - Best-effort cross-process claim files: the first process to miss
//     on a key creates <key>.claim (O_EXCL); a second process that
//     loses the claim polls briefly for the winner's published result
//     before falling back to computing it itself. Claims are advisory
//     only — correctness never depends on them, because payloads are
//     deterministic and publication is atomic (tmp + rename).
//
// A corrupt, truncated or stale-version file is an ordinary miss and is
// overwritten by the next commit; the cache can never be poisoned.
//
// An entry's mtime is its recency: a hit rewrites it only when it is
// more than one second old (recencyResolution), so a warm sweep pays one
// read per hit, and the size cap and GC evict least-recently-used
// entries at one-second resolution.
type Store struct {
	dir     string
	framing Framing

	// ClaimWait bounds how long a process that lost the cross-process
	// claim race polls for the winner's result before computing the key
	// itself. 0 disables waiting (pure duplicate-work tolerance).
	ClaimWait time.Duration
	// ClaimTTL is the age beyond which a claim file is considered
	// abandoned (crashed owner) and is removed by the next Acquire.
	ClaimTTL time.Duration

	mu sync.Mutex
	// keys holds the lock of every key some Acquire holds or waits for;
	// the last of them to release a key drops its entry.
	keys      map[string]*keyLock
	maxBytes  int64
	hits      int64
	misses    int64
	evictions int64
}

// recencyResolution is how stale an entry's mtime may get before a hit
// refreshes it. Entries hit within one such interval of each other may
// evict in either order.
const recencyResolution = time.Second

// Open opens (creating if needed) a store rooted at dir whose files are
// framed with f.
func Open(dir string, f Framing) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	return &Store{
		dir:       dir,
		framing:   f,
		ClaimWait: 2 * time.Minute,
		ClaimTTL:  10 * time.Minute,
		keys:      make(map[string]*keyLock),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file a key maps to.
func (s *Store) Path(key string) string { return filepath.Join(s.dir, key+".res") }

// claimPath returns the advisory claim file of a key.
func (s *Store) claimPath(key string) string { return filepath.Join(s.dir, key+".claim") }

// SetMaxBytes caps the total size of stored entries; every commit that
// pushes the store over the cap evicts least-recently-used entries
// (file mtime order, which Acquire hits refresh at one-second
// resolution) until it fits. 0 removes the cap.
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	s.maxBytes = n
	s.mu.Unlock()
}

// Hits reports how many Peek and Acquire calls returned a stored
// payload.
func (s *Store) Hits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Misses reports how many Acquire calls found no usable entry.
func (s *Store) Misses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Evictions reports how many entries the size cap (or an explicit GC)
// removed.
func (s *Store) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// Contains reports whether a published entry exists for the key. It is
// a cheap stat: no decode, no counters, no recency refresh.
func (s *Store) Contains(key string) bool {
	_, err := os.Stat(s.Path(key))
	return err == nil
}

// keyLock is one key's single-flight lock; refs counts its holder and
// waiters, guarded by Store.mu.
type keyLock struct {
	sync.Mutex
	refs int
}

// lockKey takes the key's single-flight lock, creating it if no one
// holds or waits for it.
func (s *Store) lockKey(key string) *keyLock {
	s.mu.Lock()
	l, ok := s.keys[key]
	if !ok {
		l = &keyLock{}
		s.keys[key] = l
	}
	l.refs++
	s.mu.Unlock()
	l.Lock()
	return l
}

// unlockKey releases the key's lock, dropping it from the table when no
// one else holds or waits for it.
func (s *Store) unlockKey(key string, l *keyLock) {
	l.Unlock()
	s.mu.Lock()
	if l.refs--; l.refs == 0 {
		delete(s.keys, key)
	}
	s.mu.Unlock()
}

// read attempts to load and validate the key's file. A usable entry
// whose mtime is more than recencyResolution old gets a fresh one, so
// hot entries survive the size cap; a future mtime counts as fresh.
func (s *Store) read(key string) ([]byte, bool) {
	path := s.Path(key)
	data, mtime, err := readEntry(path)
	if err != nil {
		return nil, false
	}
	p, err := s.framing.Decode(data)
	if err != nil {
		return nil, false
	}
	if now := time.Now(); now.Sub(mtime) > recencyResolution {
		_ = os.Chtimes(path, now, now)
	}
	return p, true
}

// Peek offers the key's published entry, if it has a usable one, to
// accept without taking the key's lock: publication is an atomic
// rename, so a reader sees a whole entry or none, and the lock only
// serializes producers. It counts a hit when accept takes the payload,
// and nothing otherwise: a caller that peeks and misses goes on to
// Acquire, which counts the miss.
func (s *Store) Peek(key string, accept func(payload []byte) bool) bool {
	p, ok := s.read(key)
	if !ok || !accept(p) {
		return false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return true
}

// Acquire looks the key up under its in-process single-flight lock. On
// a hit it returns the decoded payload; on a miss it returns nil. In
// both cases the caller MUST call the returned commit exactly once:
// commit(nil) releases the key (and any claim) without publishing,
// commit(p) frames and atomically publishes p (overwriting whatever is
// there). The key lock is held from Acquire to commit.
//
// On a miss, Acquire also races for the cross-process claim file. If
// another process holds a fresh claim, Acquire polls up to ClaimWait
// for that process to publish; a publication observed while polling is
// returned as a hit. An abandoned claim (older than ClaimTTL) is
// removed. All of this is best effort: the worst outcome of any claim
// race is duplicated computation, never a wrong or missing result.
func (s *Store) Acquire(key string) (payload []byte, commit func([]byte) error) {
	l := s.lockKey(key)
	if p, ok := s.read(key); ok {
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
		return p, func(p2 []byte) error {
			defer s.unlockKey(key, l)
			if p2 == nil {
				return nil
			}
			return s.put(key, p2)
		}
	}

	claimed := s.tryClaim(key)
	if !claimed {
		if p, ok := s.awaitClaimed(key); ok {
			s.mu.Lock()
			s.hits++
			s.mu.Unlock()
			return p, func(p2 []byte) error {
				defer s.unlockKey(key, l)
				if p2 == nil {
					return nil
				}
				return s.put(key, p2)
			}
		}
	}

	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, func(p []byte) error {
		defer s.unlockKey(key, l)
		if claimed {
			defer os.Remove(s.claimPath(key))
		}
		if p == nil {
			return nil
		}
		return s.put(key, p)
	}
}

// tryClaim attempts to create the key's claim file, reaping an
// abandoned one first. It reports whether this process now owns the
// claim.
func (s *Store) tryClaim(key string) bool {
	cp := s.claimPath(key)
	if fi, err := os.Stat(cp); err == nil && s.ClaimTTL > 0 && time.Since(fi.ModTime()) > s.ClaimTTL {
		_ = os.Remove(cp)
	}
	f, err := os.OpenFile(cp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	fmt.Fprintf(f, "%d\n", os.Getpid())
	f.Close()
	return true
}

// awaitClaimed polls for another process's publication while its claim
// stays fresh, up to ClaimWait.
func (s *Store) awaitClaimed(key string) ([]byte, bool) {
	const pollEvery = 50 * time.Millisecond
	deadline := time.Now().Add(s.ClaimWait)
	for s.ClaimWait > 0 {
		if p, ok := s.read(key); ok {
			return p, true
		}
		fi, err := os.Stat(s.claimPath(key))
		if err != nil || time.Now().After(deadline) ||
			(s.ClaimTTL > 0 && time.Since(fi.ModTime()) > s.ClaimTTL) {
			break
		}
		time.Sleep(pollEvery)
	}
	// One last read: the claim may have been released after a publish
	// between our read and stat.
	if p, ok := s.read(key); ok {
		return p, true
	}
	return nil, false
}

// Reject removes a published entry that an outer validation layer
// refused (e.g. a framed payload that decodes to the wrong result —
// a key collision). The Acquire that surfaced it counted a hit; Reject
// reclassifies it as a miss so hit-rate accounting matches what callers
// actually got.
func (s *Store) Reject(key string) {
	_ = os.Remove(s.Path(key))
	s.mu.Lock()
	s.hits--
	s.misses++
	s.mu.Unlock()
}

// put frames and atomically publishes a payload, then enforces the size
// cap if one is set.
func (s *Store) put(key string, payload []byte) error {
	framed := s.framing.Encode(payload)
	write := func(w io.Writer) error { _, err := w.Write(framed); return err }
	if err := WriteFileAtomic(s.dir, s.Path(key), write); err != nil {
		return err
	}
	s.mu.Lock()
	limit := s.maxBytes
	s.mu.Unlock()
	if limit > 0 {
		_, _, err := s.GC(limit)
		return err
	}
	return nil
}

// GC shrinks the store to at most maxBytes by removing
// least-recently-used entries (file mtime order, which Acquire hits
// refresh at one-second resolution), returning how many entries were
// removed and how many bytes were freed. It also deletes what crashed
// processes leave behind once it is older than ClaimTTL: the temp files
// of writers killed before their rename, and abandoned claim files
// (their bytes count as freed, not as entries). Foreign files are left
// alone.
func (s *Store) GC(maxBytes int64) (removed int, freed int64, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store: gc: %w", err)
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, e := range ents {
		orphan := strings.Contains(e.Name(), ".res.tmp") || filepath.Ext(e.Name()) == ".claim"
		if e.IsDir() || !orphan && filepath.Ext(e.Name()) != ".res" {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		if orphan {
			if s.ClaimTTL > 0 && time.Since(fi.ModTime()) > s.ClaimTTL && os.Remove(path) == nil {
				freed += fi.Size()
			}
			continue
		}
		files = append(files, entry{path: path, size: fi.Size(), mtime: fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(f.path); err != nil {
			continue
		}
		total -= f.size
		freed += f.size
		removed++
	}
	if removed > 0 {
		s.mu.Lock()
		s.evictions += int64(removed)
		s.mu.Unlock()
	}
	return removed, freed, nil
}

// Size returns the entry count and total byte size of published
// entries.
func (s *Store) Size() (entries int, bytes int64, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store: size: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".res" {
			continue
		}
		if fi, err := e.Info(); err == nil {
			entries++
			bytes += fi.Size()
		}
	}
	return entries, bytes, nil
}

// ParseSize parses a human byte-size flag value: a plain integer byte
// count, optionally suffixed with K, M or G (binary multiples, case
// insensitive).
func ParseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult, digits := int64(1), s
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, digits = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, digits = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, digits = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("store: bad size %q (want bytes with optional K/M/G suffix)", s)
	}
	return n * mult, nil
}
