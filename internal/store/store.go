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
	"sync/atomic"
	"time"
)

// Store is a disk-backed, content-addressed blob store: one framed file
// per key under a directory. Keys are caller-derived content addresses
// (hashes over everything that identifies the payload), so the store
// itself never interprets payloads beyond the framing checksum.
//
// A Store holds no lock; its counters are atomic. Concurrency
// discipline:
//
//   - Lock-free reads: publication is an atomic rename, so a reader
//     (Peek, or Acquire's lookup) sees a whole entry or none.
//   - One serializer for producers, the claim file: the first Acquire to
//     miss on a key creates <key>.claim (O_EXCL), re-reads the key, and
//     computes only if it is still missing; an Acquire that loses the
//     claim, on this handle, another handle or in another process, polls
//     for the winner's published result before computing the key
//     itself. Claims are advisory only — correctness never depends on
//     them, because payloads are deterministic and publication is
//     atomic (tmp + rename). In-process single-flight belongs to the
//     caller (the harness memo); the claim is the one across handles
//     and processes.
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

	// claimWait bounds how long an Acquire that lost the claim race polls
	// for the winner's result before computing the key itself. 0
	// disables waiting (pure duplicate-work tolerance).
	claimWait time.Duration
	// claimTTL is the age beyond which a claim file is considered
	// abandoned (crashed owner) and is removed by the next Acquire.
	claimTTL time.Duration

	maxBytes                atomic.Int64
	hits, misses, evictions atomic.Int64
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
	return &Store{dir: dir, framing: f, claimWait: 2 * time.Minute, claimTTL: 10 * time.Minute}, nil
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
func (s *Store) SetMaxBytes(n int64) { s.maxBytes.Store(n) }

// Hits reports how many Peek and Acquire calls returned a stored
// payload.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses reports how many Acquire calls found no usable entry.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Evictions reports how many entries the size cap (or an explicit GC)
// removed.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

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
// accept: publication is an atomic rename, so a reader sees a whole
// entry or none, and only producers take the claim. It counts a hit
// when accept takes the payload, and nothing otherwise: a caller that
// peeks and misses goes on to Acquire, which counts the miss.
func (s *Store) Peek(key string, accept func(payload []byte) bool) bool {
	p, ok := s.read(key)
	if !ok || !accept(p) {
		return false
	}
	s.hits.Add(1)
	return true
}

// Acquire looks the key up. On a hit it returns the decoded payload; on
// a miss it returns nil. In both cases the caller MUST call the
// returned commit exactly once: commit(nil) releases the key's claim,
// if Acquire took one, without publishing; commit(p) frames and
// atomically publishes p (overwriting whatever is there), then releases
// the claim.
//
// On a miss, Acquire races for the key's claim file. The winner reads
// the key once more, since another producer may have published and
// released its claim between the first read and the claim: such an
// entry is a hit, and the claim is released at once. A loser polls up
// to claimWait for the claim's holder to publish; a publication
// observed while polling is a hit. An abandoned claim (older than
// claimTTL) is removed. All of this is best effort: the worst outcome
// of any claim race is duplicated computation, never a wrong or
// missing result.
func (s *Store) Acquire(key string) (payload []byte, commit func([]byte) error) {
	publish := func(p []byte) error {
		if p == nil {
			return nil
		}
		return s.put(key, p)
	}
	p, ok := s.read(key)
	claimed := !ok && s.tryClaim(key)
	switch {
	case claimed:
		if p, ok = s.read(key); ok {
			_ = os.Remove(s.claimPath(key))
			claimed = false
		}
	case !ok:
		p, ok = s.awaitClaimed(key)
	}
	if ok {
		s.hits.Add(1)
		return p, publish
	}
	s.misses.Add(1)
	if !claimed {
		return nil, publish
	}
	return nil, func(p []byte) error {
		defer os.Remove(s.claimPath(key))
		return publish(p)
	}
}

// tryClaim attempts to create the key's claim file, reaping an
// abandoned one first. It reports whether the caller now owns the
// claim.
func (s *Store) tryClaim(key string) bool {
	cp := s.claimPath(key)
	if fi, err := os.Stat(cp); err == nil && s.claimTTL > 0 && time.Since(fi.ModTime()) > s.claimTTL {
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

// awaitClaimed polls for the claim holder's publication while its claim
// stays fresh, up to claimWait.
func (s *Store) awaitClaimed(key string) ([]byte, bool) {
	const pollEvery = 50 * time.Millisecond
	deadline := time.Now().Add(s.claimWait)
	for s.claimWait > 0 {
		if p, ok := s.read(key); ok {
			return p, true
		}
		fi, err := os.Stat(s.claimPath(key))
		if err != nil || time.Now().After(deadline) ||
			(s.claimTTL > 0 && time.Since(fi.ModTime()) > s.claimTTL) {
			break
		}
		time.Sleep(pollEvery)
	}
	// One last read: the claim may have been released after a publish
	// between our read and stat.
	return s.read(key)
}

// Reject removes a published entry that an outer validation layer
// refused (e.g. a framed payload that decodes to the wrong result —
// a key collision). The Acquire that surfaced it counted a hit; Reject
// reclassifies it as a miss so hit-rate accounting matches what callers
// actually got.
func (s *Store) Reject(key string) {
	_ = os.Remove(s.Path(key))
	s.hits.Add(-1)
	s.misses.Add(1)
}

// put frames and atomically publishes a payload, then enforces the size
// cap if one is set.
func (s *Store) put(key string, payload []byte) error {
	framed := s.framing.Encode(payload)
	write := func(w io.Writer) error { _, err := w.Write(framed); return err }
	if err := WriteFileAtomic(s.dir, s.Path(key), write); err != nil {
		return err
	}
	if limit := s.maxBytes.Load(); limit > 0 {
		_, _, err := s.GC(limit)
		return err
	}
	return nil
}

// GC shrinks the store to at most maxBytes by removing
// least-recently-used entries (file mtime order, which Acquire hits
// refresh at one-second resolution), returning how many entries were
// removed and how many bytes were freed. It also deletes what crashed
// processes leave behind once it is older than claimTTL: the temp files
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
			if s.claimTTL > 0 && time.Since(fi.ModTime()) > s.claimTTL && os.Remove(path) == nil {
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
	s.evictions.Add(int64(removed))
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
