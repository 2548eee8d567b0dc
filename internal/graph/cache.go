package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"graphmem/internal/store"
)

// GenVersion versions the generators' output. It is part of every graph
// cache key, so bump it with any change that moves a generated byte:
// TestGraphFingerprints then fails until its table is re-pinned, and
// TestGenVersionPinsFingerprints until the bump is recorded beside it.
const GenVersion = 1

// The graph cache. Every process that simulates a profile builds its
// graphs, and at bench scale and above the builds are a third of a cold
// point; a graph is a pure function of its generator's arguments, so the
// first process to build one publishes it under those arguments and the
// next reads its arrays back instead.
//
// Entries live in os.UserCacheDir()/graphmem/graphs (os.TempDir() when
// there is none; XDG_CACHE_HOME moves it like any user cache), apart
// from the result store. An entry is a graph file (io.go) whose key
// names the generator, its arguments and GenVersion.
//
// A file that is short, torn, flipped, foreign or of another key is a
// miss: the graph is rebuilt and republished, and no caller ever sees an
// error. So is every failure to create, read or write the directory: the
// graph is then built as it always was, with the same bytes. Because the
// CRC covers the whole file, a hit needs no Validate pass, and a crash
// mid-write needs no fsync to stay safe.

// cacheFrom is the fewest directed edges, as a generator's arguments
// predict them, that make a graph worth caching: the bench and larger
// profiles' graphs, not the tests' or Kron(12). Tests set it to 0 to push
// small graphs through the cache and above every graph to measure
// generation alone.
var cacheFrom int64 = collectAfter

// Trimming, the way Go's build cache does it: the first time a process
// opens a cache directory, it deletes entries unread for entryTTL and
// temp files older than tempTTL. A hit refreshes its entry's mtime at
// most once per touchEvery.
const (
	entryTTL   = 5 * 24 * time.Hour
	tempTTL    = time.Hour
	touchEvery = time.Hour

	entrySuffix = ".graph"
	// tempMark is in the name of every temp file store.WriteFileAtomic
	// leaves while it publishes an entry (the entry's name, .tmp, digits).
	tempMark = entrySuffix + ".tmp"
)

// cached returns build's graph, which gen and args name and which is
// expected to hold about edges directed edges: read from the cache when
// an intact entry exists, else built and published.
func cached(edges int64, build func() *Graph, gen string, args ...any) *Graph {
	if edges < cacheFrom {
		return build()
	}
	key := fmt.Sprintf("%s v%d %v", gen, GenVersion, args)
	dir := cacheDir()
	trimOnce(dir)
	sum := sha256.Sum256([]byte(key))
	path := filepath.Join(dir, gen+"-"+hex.EncodeToString(sum[:8])+entrySuffix)
	if g := readEntry(path, key); g != nil {
		return g
	}
	g := build()
	// A graph that cannot be published is still the graph: the cache only
	// saves the next process a build. Of several processes publishing one
	// key, one rename wins; a temp file left behind is trimmed after tempTTL.
	if os.MkdirAll(dir, 0o755) == nil {
		_ = store.WriteFileAtomic(dir, path, func(w io.Writer) error { return g.write(w, key) })
	}
	return g
}

// cacheDir is where entries live.
func cacheDir() string {
	root, err := os.UserCacheDir()
	if err != nil {
		root = os.TempDir()
	}
	return filepath.Join(root, "graphmem", "graphs")
}

// FromCache reports whether the graph was read from the graph cache
// rather than generated by this process.
func (g *Graph) FromCache() bool { return g.fromCache }

// readEntry returns the graph the entry at path holds for key, or nil
// when there is no intact one. The file's size vouches for the header
// before anything is allocated, so a lying header costs nothing.
func readEntry(path, key string) *Graph {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil
	}
	g, err := readGraph(f, key, info.Size())
	if err != nil {
		return nil
	}
	g.fromCache = true
	if time.Since(info.ModTime()) > touchEvery {
		now := time.Now()
		_ = os.Chtimes(path, now, now) // a stale mtime only shortens the entry's life
	}
	return g
}

var trimmed sync.Map // cache directories this process has trimmed

// trimOnce trims dir the first time this process opens it.
func trimOnce(dir string) {
	if _, done := trimmed.LoadOrStore(dir, true); done {
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	now := time.Now()
	for _, e := range entries {
		ttl := entryTTL
		switch name := e.Name(); {
		case strings.Contains(name, tempMark):
			ttl = tempTTL
		case !strings.HasSuffix(name, entrySuffix):
			continue
		}
		if info, err := e.Info(); err == nil && now.Sub(info.ModTime()) > ttl {
			_ = os.Remove(filepath.Join(dir, e.Name())) // the next process tries again
		}
	}
}
