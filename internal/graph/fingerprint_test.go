package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// fingerprint hashes everything a graph's identity consists of:
// N | OA | NA | W, little-endian, with a flag byte telling a nil W from
// an empty one.
func fingerprint(g *Graph) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(g.N))
	h.Write(buf[:4])
	for _, v := range g.OA {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:8])
	}
	for _, v := range g.NA {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:4])
	}
	if g.W != nil {
		h.Write([]byte{1})
		for _, v := range g.W {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintCases pins every generator's output (TestGraphFingerprints).
var fingerprintCases = []struct {
	name  string
	big   bool // bench-profile size: skipped under -short
	build func() *Graph
	want  string
}{
	{"urand/1000", false, func() *Graph { return Urand(1000, 4000, 1) },
		"14b0fd17e64b736b4e2101870615b6faf5a030210eac11e1e87f1034ecef52e1"},
	{"urand/dense", false, func() *Graph { return Urand(40, 3000, 2) },
		"ac50a54f3f84e20f4f074bf80c8988969a272cd12fc98f685a6aee45a03bdf0d"},
	{"kron/10", false, func() *Graph { return Kron(10, 8, 2) },
		"a9ca052e904e0dbcb868a91da3e72edbc90440d7eaa65cda9169d388c72100a3"},
	{"kron/4-dense", false, func() *Graph { return Kron(4, 64, 3) },
		"1898cbd719c0ac404b6c8ad471f2cee7aa2a29cd8f4a3d0edc2c1c05cd37ed66"},
	{"twitter/1000", false, func() *Graph { return PowerLaw(1000, 8, 0.2, false, 3) },
		"387fbc65aa50c41ded9e98cb87209f334dadfc4b8164b30963817af311db155e"},
	{"friendster/1000", false, func() *Graph { return PowerLaw(1000, 8, 0.1, true, 4) },
		"d6fa6ef3684978a3f5a9401ddade11177d77bc2a5981f4d5df2a170eb0d8d7a3"},
	{"powerlaw/n<deg", false, func() *Graph { return PowerLaw(5, 8, 0.5, true, 5) },
		"a48c887ae2a5ee8261890c550630fb42cc2149a595a35db1dba7db3b3b3322be"},
	{"web/1024", false, func() *Graph { return WebLike(1024, 8, 5) },
		"a595ec4f5e5344b8db9e4683e3b298f71938f339f9ea20291d71563bab4c924f"},
	{"road/32", false, func() *Graph { return RoadGrid(32, 32, 255, 6) },
		"12d1793b0b7230c54e5975c49c50eac1015f8e05875f3124aabac6d492c0c810"},
	{"unitweights/kron", false, func() *Graph { return AddUnitWeights(Kron(10, 8, 2), 64, 0xD2B5) },
		"9a973564cf36d49e9382b3b8a4536cab842775ca8b03a9337932bd85d11ab1e1"},
	{"unitweights/web", false, func() *Graph { return AddUnitWeights(WebLike(1024, 8, 5), 8, 0x59e5) },
		"ad51a6ded1d5273a48b0bc36db18f8b6c18a390f6fc3a2323c20b353e01f04f0"},
	// The four generator-built inputs of the bench profile
	// (harness.Bench: graphSet(graphSizes{450_000, 700, 6, 8, 19, 8})).
	{"bench/kron", true, func() *Graph { return Kron(19, 8, 0x6501) },
		"cd5fad1a3d538930087cbac8333669a3363537c59bbb2553177b414c7d6e4a56"},
	{"bench/urand", true, func() *Graph { return Urand(1<<19, 8<<19/2, 0x0a4d) },
		"e6c3721ccc1deb47e344afd96b867f113a490615c43a5e9c4882efb8f021e6aa"},
	{"bench/twitter", true, func() *Graph { return PowerLaw(450_000, 6, 0.15, false, 0x7517) },
		"9015028d6eabaa4031eb5c712fc13c21b72374bdb40575d0911f8419e9e957d3"},
	{"bench/friendster", true, func() *Graph { return PowerLaw(562_500, 8, 0.05, true, 0xF12E) },
		"33c8a96cc2c223ed096319273cc8200896142b0bd9548429c6befe17d1d68495"},
}

// TestGraphFingerprints pins the exact bytes of every generator's
// output. The hashes were captured on the commit *before* the
// generators and Build were rewritten for speed (PR 13's tree, the
// rand.Rand/Float64 R-MAT loop, doubled []Edge lists and per-vertex
// slices.Sort), so a pass here means the rewrite produces the same
// graphs bit for bit. Goldens, ci/sample_reference.json and every
// result-store entry depend on these bytes; a drift would otherwise
// surface only as an unexplained IPC diff downstream. Never edit a hash
// to make this test pass without bumping sim.StateVersion and
// re-baselining those, and graph.GenVersion, or the graph cache serves
// the old bytes to every process that finds them on disk
// (TestGenVersionPinsFingerprints holds that bump to the table). Every
// case is built at GOMAXPROCS 1, 2, 3 and 8 with even the small graphs
// split into several chunks (withProcs): a build's bytes must not
// depend on how many workers made it.
func TestGraphFingerprints(t *testing.T) {
	// The bench cases are big enough to be cached: measure generation.
	defer func(from int64) { cacheFrom = from }(cacheFrom)
	cacheFrom = math.MaxInt64
	for _, c := range fingerprintCases {
		t.Run(c.name, func(t *testing.T) {
			if c.big && testing.Short() {
				t.Skip("bench-profile graph; skipped under -short")
			}
			counts := []int{1, 2, 3, 8}
			if c.big && raceOn {
				counts = []int{3}
			}
			for _, procs := range counts {
				withProcs(procs, func() {
					if got := fingerprint(c.build()); got != c.want {
						t.Errorf("GOMAXPROCS=%d: fingerprint = %s, want %s (a deliberate change also bumps graph.GenVersion: cached graphs keep the old bytes)", procs, got, c.want)
					}
				})
			}
		})
	}
}

// genVersions records, for each GenVersion, the hash of
// fingerprintCases it was pinned with (fingerprintTableHash), oldest
// first. A table that changes while GenVersion stays fails
// TestGenVersionPinsFingerprints: the new hashes need a new version
// line, and that line needs the bump.
var genVersions = []string{
	"1 d90b2da8aea3f674",
}

// fingerprintTableHash hashes every case's name and pinned fingerprint.
func fingerprintTableHash() string {
	h := sha256.New()
	for _, c := range fingerprintCases {
		fmt.Fprintf(h, "%s %s\n", c.name, c.want)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGenVersionPinsFingerprints: the fingerprint table and GenVersion
// change together, so a cache entry written before a generator change is
// never read after it.
func TestGenVersionPinsFingerprints(t *testing.T) {
	prev := 0
	for _, line := range genVersions {
		var v int
		var hash string
		if _, err := fmt.Sscanf(line, "%d %s", &v, &hash); err != nil || v <= prev {
			t.Fatalf("genVersions line %q: want \"<version> <hash>\" with versions rising", line)
		}
		prev = v
	}
	got := fmt.Sprintf("%d %s", GenVersion, fingerprintTableHash())
	if last := genVersions[len(genVersions)-1]; last != got {
		t.Fatalf("fingerprint table and GenVersion are %q, genVersions ends %q: a changed table needs a GenVersion bump (cache.go) and the line %q appended", got, last, got)
	}
}
