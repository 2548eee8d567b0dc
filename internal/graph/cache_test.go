package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// useCache points the graph cache at a fresh directory and lets every
// graph, however small, through it; it returns the directory.
func useCache(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", root)
	dir := cacheDir()
	if !strings.HasPrefix(dir, root) {
		t.Skipf("the user cache dir %s does not follow XDG_CACHE_HOME here", dir)
	}
	from := cacheFrom
	cacheFrom = 0
	t.Cleanup(func() { cacheFrom = from })
	return dir
}

// generate builds with the cache off: the bytes a generator makes.
func generate(build func() *Graph) *Graph {
	defer func(from int64) { cacheFrom = from }(cacheFrom)
	cacheFrom = math.MaxInt64
	return build()
}

// entries lists the cache's published entries and its temp files.
func entries(t *testing.T, dir string) (published, temps []string) {
	t.Helper()
	published, _ = filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	temps, _ = filepath.Glob(filepath.Join(dir, "*"+tempMark+"*"))
	return published, temps
}

// cacheGenerators covers all five generators, the weighted road and the
// directed web graph among them.
var cacheGenerators = []struct {
	name     string
	build    func() *Graph
	mirrored bool
}{
	{"kron", func() *Graph { return Kron(10, 8, 2) }, true},
	{"urand", func() *Graph { return Urand(1000, 4000, 1) }, true},
	{"twitter", func() *Graph { return PowerLaw(1000, 8, 0.2, false, 3) }, true},
	{"friendster", func() *Graph { return PowerLaw(1000, 8, 0.1, true, 4) }, true},
	{"web", func() *Graph { return WebLike(1024, 8, 5) }, false},
	{"road", func() *Graph { return RoadGrid(32, 32, 255, 6) }, false},
}

// TestCacheHitIsTheBuild: a miss builds and publishes, and the next call
// reads a graph with the fresh build's bytes, weights and mirroring: a
// mirrored hit is its own transpose, so pr and bfs build none for it.
func TestCacheHitIsTheBuild(t *testing.T) {
	dir := useCache(t)
	for _, c := range cacheGenerators {
		want := generate(c.build)
		first := c.build()
		second := c.build()
		if first.FromCache() || !second.FromCache() {
			t.Fatalf("%s: FromCache = %v then %v, want a build then a read", c.name, first.FromCache(), second.FromCache())
		}
		for _, g := range []*Graph{first, second} {
			if fingerprint(g) != fingerprint(want) || g.Weighted() != want.Weighted() || g.mirrored != want.mirrored {
				t.Errorf("%s (from cache %v): differs from a fresh build", c.name, g.FromCache())
			}
		}
		if tr := second.TransposeCached(); (tr == second) != c.mirrored {
			t.Errorf("%s: a hit's TransposeCached() is the graph itself: %v, want %v", c.name, tr == second, c.mirrored)
		} else if !c.mirrored && fingerprint(tr) != fingerprint(want.Transpose()) {
			t.Errorf("%s: a hit's transpose differs from the build's", c.name)
		}
	}
	if published, temps := entries(t, dir); len(published) != len(cacheGenerators) || len(temps) != 0 {
		t.Errorf("cache holds %d entries and %d temp files, want %d and 0", len(published), len(temps), len(cacheGenerators))
	}
}

// TestCacheSkipsSmallGraphs: below cacheFrom a generator only builds.
func TestCacheSkipsSmallGraphs(t *testing.T) {
	dir := useCache(t)
	cacheFrom = 2*8<<10 + 1
	if Kron(10, 8, 2).FromCache() || Kron(10, 8, 2).FromCache() {
		t.Error("a graph under cacheFrom was read from the cache")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a graph under cacheFrom created the cache directory (stat: %v)", err)
	}
}

// rewrite replaces the single entry in dir with edit's version of it.
func rewrite(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	published, _ := entries(t, dir)
	if len(published) != 1 {
		t.Fatalf("%d entries, want 1", len(published))
	}
	data, err := os.ReadFile(published[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(published[0], edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// resealed gives data a valid checksum again, so only the edit under it
// can make the entry a miss.
func resealed(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli))
}

// shapeAt is where the N, M and flags of the graph file in b begin.
func shapeAt(b []byte) int {
	return len(fileMagic) + 4 + int(binary.LittleEndian.Uint32(b[len(fileMagic):]))
}

// fileDamage is the damage a graph file may come to, each edit of one
// that neither ReadBinary nor the cache may accept.
var fileDamage = map[string]func([]byte) []byte{
	"empty":     func(b []byte) []byte { return nil },
	"truncated": func(b []byte) []byte { return b[:len(b)-1] },
	"half":      func(b []byte) []byte { return b[:len(b)/2] },
	"longer":    func(b []byte) []byte { return append(b, 0) },
	"flipped": func(b []byte) []byte {
		b[len(b)/2] ^= 0x10
		return b
	},
	"flipped-crc": func(b []byte) []byte {
		b[len(b)-1] ^= 1
		return b
	},
	"bad-magic": func(b []byte) []byte {
		b[0] = 'X'
		return resealed(b)
	},
	"unknown-flag": func(b []byte) []byte {
		b[shapeAt(b)+shapeLen-1] |= 0x80
		return resealed(b)
	},
	"huge-M": func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[shapeAt(b)+4:], 1<<61)
		return resealed(b)
	},
	// Vertex 0's last neighbour one lower: still in range and sorted, so
	// only the checksum can tell (TestReadBinaryRefusesDamage).
	"neighbour": func(b []byte) []byte {
		shape := shapeAt(b)
		oa := shape + shapeLen
		na := oa + 8*(int(binary.LittleEndian.Uint32(b[shape:]))+1)
		last := na + 4*(int(binary.LittleEndian.Uint64(b[oa+8:]))-1)
		binary.LittleEndian.PutUint32(b[last:], binary.LittleEndian.Uint32(b[last:])-1)
		return b
	},
}

// TestCacheDamageIsAMiss: a truncated, flipped, foreign or other-version
// entry is never read; the generator rebuilds, with the same bytes, and
// republishes an entry the next call reads.
func TestCacheDamageIsAMiss(t *testing.T) {
	build := func() *Graph { return RoadGrid(32, 32, 255, 6) }
	want := fingerprint(generate(build))
	damage := map[string]func([]byte) []byte{
		"wrong-key": func(b []byte) []byte {
			return resealed(bytes.Replace(b, []byte("road"), []byte("daor"), 1))
		},
		"wrong-GenVersion": func(b []byte) []byte {
			version, next := fmt.Sprintf(" v%d ", GenVersion), fmt.Sprintf(" v%d ", GenVersion+1)
			return resealed(bytes.Replace(b, []byte(version), []byte(next), 1))
		},
	}
	maps.Copy(damage, fileDamage)
	for name, edit := range damage {
		t.Run(name, func(t *testing.T) {
			dir := useCache(t)
			build()
			rewrite(t, dir, edit)
			g := build()
			if g.FromCache() || fingerprint(g) != want {
				t.Fatalf("damaged entry: FromCache %v, same bytes %v; want a rebuild", g.FromCache(), fingerprint(g) == want)
			}
			if g := build(); !g.FromCache() || fingerprint(g) != want {
				t.Errorf("after the rebuild: FromCache %v, same bytes %v; want a read of the republished entry", g.FromCache(), fingerprint(g) == want)
			}
		})
	}
}

// TestReadBinaryRefusesDamage: every file damage is an error from
// ReadBinary too. The neighbour edit resealed is a valid graph, other
// than the one written: the checksum is all that refuses it.
func TestReadBinaryRefusesDamage(t *testing.T) {
	g := RoadGrid(32, 32, 255, 6)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	for name, edit := range fileDamage {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(edit(bytes.Clone(buf.Bytes())))); err == nil {
				t.Error("damaged file accepted")
			}
		})
	}
	other, err := ReadBinary(bytes.NewReader(resealed(fileDamage["neighbour"](bytes.Clone(buf.Bytes())))))
	if err != nil || fingerprint(other) == fingerprint(g) {
		t.Errorf("neighbour edit resealed: %v, same graph %v; want a valid other graph", err, err == nil && fingerprint(other) == fingerprint(g))
	}
}

// TestCacheUnwritableStillBuilds: when the cache directory cannot be
// made, every call builds, with the same bytes.
func TestCacheUnwritableStillBuilds(t *testing.T) {
	root := useCache(t)
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("XDG_CACHE_HOME", blocker) // a file: nothing can be made under it
	if cacheDir() == root {
		t.Fatal("cacheDir did not move")
	}
	want := fingerprint(generate(func() *Graph { return Kron(10, 8, 2) }))
	for range 2 {
		if g := Kron(10, 8, 2); g.FromCache() || fingerprint(g) != want {
			t.Fatalf("unwritable cache: FromCache %v, same bytes %v", g.FromCache(), fingerprint(g) == want)
		}
	}
}

// TestCacheConcurrentPublish: goroutines that miss on one key at once
// each build and publish, and the cache ends with one complete entry.
func TestCacheConcurrentPublish(t *testing.T) {
	dir := useCache(t)
	want := fingerprint(generate(func() *Graph { return Kron(11, 8, 2) }))
	var wg sync.WaitGroup
	got := make([]string, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fingerprint(Kron(11, 8, 2))
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d: bytes differ from a fresh build", i)
		}
	}
	if published, temps := entries(t, dir); len(published) != 1 || len(temps) != 0 {
		t.Fatalf("cache holds %d entries and %d temp files, want 1 and 0", len(published), len(temps))
	}
	if g := Kron(11, 8, 2); !g.FromCache() || fingerprint(g) != want {
		t.Errorf("the published entry: FromCache %v, same bytes %v", g.FromCache(), fingerprint(g) == want)
	}
}

// helperEnv makes the test binary publish one graph and exit
// (TestCacheHelperProcess), for the cross-process test.
const helperEnv = "GRAPH_CACHE_TEST_HELPER"

func TestCacheHelperProcess(t *testing.T) {
	if os.Getenv(helperEnv) == "" {
		t.Skip("run by TestCacheCrossProcessPublish")
	}
	cacheFrom = 0
	Kron(12, 8, 9)
}

// TestCacheCrossProcessPublish: two processes that publish one key at
// once leave one complete entry, which a third reads.
func TestCacheCrossProcessPublish(t *testing.T) {
	dir := useCache(t)
	cmds := make([]*exec.Cmd, 2)
	for i := range cmds {
		cmds[i] = exec.Command(os.Args[0], "-test.run=^TestCacheHelperProcess$", "-test.count=1")
		cmds[i].Env = append(os.Environ(), helperEnv+"=1")
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cmds {
		if err := c.Wait(); err != nil {
			t.Fatalf("helper process: %v", err)
		}
	}
	if published, temps := entries(t, dir); len(published) != 1 || len(temps) != 0 {
		t.Fatalf("cache holds %d entries and %d temp files, want 1 and 0", len(published), len(temps))
	}
	want := fingerprint(generate(func() *Graph { return Kron(12, 8, 9) }))
	if g := Kron(12, 8, 9); !g.FromCache() || fingerprint(g) != want {
		t.Errorf("the published entry: FromCache %v, same bytes %v", g.FromCache(), fingerprint(g) == want)
	}
}

// TestCacheTrim: the first open of a directory deletes entries unread
// for entryTTL and temp files older than tempTTL, and keeps the rest; a
// hit refreshes an mtime older than touchEvery and leaves a newer one.
func TestCacheTrim(t *testing.T) {
	dir := useCache(t)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	files := map[string]time.Duration{
		"old" + entrySuffix:       entryTTL + time.Hour,
		"recent" + entrySuffix:    entryTTL - time.Hour,
		"old" + tempMark + "1":    tempTTL + time.Minute,
		"recent" + tempMark + "2": tempTTL - time.Minute,
		"foreign":                 10 * entryTTL,
		"foreign" + entrySuffix:   0,
	}
	for name, age := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, now.Add(-age), now.Add(-age)); err != nil {
			t.Fatal(err)
		}
	}
	Kron(10, 8, 2) // opens the directory: trims, then publishes
	for name := range files {
		_, err := os.Stat(filepath.Join(dir, name))
		if gone, want := os.IsNotExist(err), name == "old"+entrySuffix || name == "old"+tempMark+"1"; gone != want {
			t.Errorf("%s: deleted %v, want %v", name, gone, want)
		}
	}

	published, _ := filepath.Glob(filepath.Join(dir, "kron-*"+entrySuffix))
	if len(published) != 1 {
		t.Fatalf("%d kron entries, want 1", len(published))
	}
	for _, c := range []struct {
		age     time.Duration
		touched bool
	}{{touchEvery - time.Minute, false}, {touchEvery + time.Minute, true}} {
		then := now.Add(-c.age)
		if err := os.Chtimes(published[0], then, then); err != nil {
			t.Fatal(err)
		}
		if !Kron(10, 8, 2).FromCache() {
			t.Fatal("no hit")
		}
		info, err := os.Stat(published[0])
		if err != nil {
			t.Fatal(err)
		}
		if touched := info.ModTime().After(then.Add(time.Second)); touched != c.touched {
			t.Errorf("hit on an entry %v old: mtime refreshed %v, want %v", c.age, touched, c.touched)
		}
	}
}
