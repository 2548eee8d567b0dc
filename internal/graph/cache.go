package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
	"unsafe"
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
// from the result store. An entry is one file:
//
//	magic | key length (u32) | key | N (u32) | M (u64) | flags (u8)
//	OA | NA | W (weighted only)   raw little-endian
//	CRC-32C (Castagnoli) of everything above
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
)

var cacheMagic = [8]byte{'G', 'M', 'G', 'C', 'A', 'C', 'H', '1'}

// Flag bits of an entry's header.
const (
	flagWeighted = 1 << iota
	flagMirrored
)

const (
	entrySuffix = ".graph"
	tempPrefix  = "tmp-"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// littleEndian: entries hold the arrays as they sit in memory, so a
// big-endian host builds every graph instead.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// cached returns build's graph, which gen and args name and which is
// expected to hold about edges directed edges: read from the cache when
// an intact entry exists, else built and published.
func cached(edges int64, build func() *Graph, gen string, args ...any) *Graph {
	if edges < cacheFrom || !littleEndian {
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
	// saves the next process a build.
	_ = publish(dir, path, key, g)
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

// shapeLen is the size of a header's last three fields: N, M, flags.
const shapeLen = 4 + 8 + 1

// header renders an entry's header: its key, then a graph's shape.
func header(key string, n int32, m int64, flags byte) []byte {
	h := make([]byte, 0, len(cacheMagic)+4+len(key)+shapeLen)
	h = append(h, cacheMagic[:]...)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(key)))
	h = append(h, key...)
	h = binary.LittleEndian.AppendUint32(h, uint32(n))
	h = binary.LittleEndian.AppendUint64(h, uint64(m))
	return append(h, flags)
}

// bytesOf is the memory of vals, viewed as bytes: what an entry holds.
func bytesOf[T int32 | int64](vals []T) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*int(unsafe.Sizeof(vals[0])))
}

// readEntry returns the graph the entry at path holds for key, or nil
// when there is no intact one. The header is checked against the file's
// size before anything is allocated, so a lying header costs nothing.
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
	crc := uint32(0)
	read := func(b []byte) bool {
		if _, err := io.ReadFull(f, b); err != nil {
			return false
		}
		crc = crc32.Update(crc, castagnoli, b)
		return true
	}
	want := header(key, 0, 0, 0)
	hdr := make([]byte, len(want))
	keyEnd := len(want) - shapeLen
	if !read(hdr) || string(hdr[:keyEnd]) != string(want[:keyEnd]) {
		return nil
	}
	shape := hdr[keyEnd:]
	n := int32(binary.LittleEndian.Uint32(shape))
	m := int64(binary.LittleEndian.Uint64(shape[4:]))
	flags := shape[12]
	if n < 0 || m < 0 || m > info.Size() || flags&^(flagWeighted|flagMirrored) != 0 {
		return nil
	}
	arrays := 1 + int64(flags&flagWeighted)
	if info.Size() != int64(len(hdr))+8*(int64(n)+1)+4*m*arrays+4 {
		return nil
	}
	g := &Graph{N: n, OA: make([]int64, n+1), NA: make([]int32, m), mirrored: flags&flagMirrored != 0, fromCache: true}
	if flags&flagWeighted != 0 {
		g.W = make([]int32, m)
	}
	var sum [4]byte
	if !read(bytesOf(g.OA)) || !read(bytesOf(g.NA)) || !read(bytesOf(g.W)) {
		return nil
	}
	if _, err := io.ReadFull(f, sum[:]); err != nil || binary.LittleEndian.Uint32(sum[:]) != crc {
		return nil
	}
	if time.Since(info.ModTime()) > touchEvery {
		now := time.Now()
		_ = os.Chtimes(path, now, now) // a stale mtime only shortens the entry's life
	}
	return g
}

// publish writes g's entry to a temp file in dir, straight from its
// arrays, and renames it to path: readers see a complete entry or none,
// and of several processes publishing one key, one rename wins.
func publish(dir, path, key string, g *Graph) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	err = writeEntry(f, key, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // one left behind is trimmed after tempTTL
	}
	return err
}

// writeEntry writes g's entry for key to w.
func writeEntry(w io.Writer, key string, g *Graph) error {
	var flags byte
	if g.Weighted() {
		flags |= flagWeighted
	}
	if g.mirrored {
		flags |= flagMirrored
	}
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(w, crc)
	for _, b := range [][]byte{header(key, g.N, int64(len(g.NA)), flags), bytesOf(g.OA), bytesOf(g.NA), bytesOf(g.W)} {
		if _, err := out.Write(b); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
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
		case strings.HasPrefix(name, tempPrefix):
			ttl = tempTTL
		case !strings.HasSuffix(name, entrySuffix):
			continue
		}
		if info, err := e.Info(); err == nil && now.Sub(info.ModTime()) > ttl {
			_ = os.Remove(filepath.Join(dir, e.Name())) // the next process tries again
		}
	}
}
