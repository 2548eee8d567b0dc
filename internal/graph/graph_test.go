package graph

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// tiny builds the example graph used throughout unit tests:
//
//	0 -> 1, 2
//	1 -> 2
//	2 -> 0
//	3 -> 1
func tiny() *Graph {
	return Build(4, []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2},
		{Src: 1, Dst: 2},
		{Src: 2, Dst: 0},
		{Src: 3, Dst: 1},
	}, false)
}

func TestBuildBasics(t *testing.T) {
	g := tiny()
	if g.NumVertices() != 4 {
		t.Fatalf("N = %d", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("M = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantAdj := [][]int32{{1, 2}, {2}, {0}, {1}}
	for u, want := range wantAdj {
		got := g.Neighbors(int32(u))
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Neighbors(%d) = %v, want %v", u, got, want)
			}
		}
	}
}

func TestBuildDedupesAndDropsSelfLoops(t *testing.T) {
	g := Build(3, []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1},
		{Src: 1, Dst: 1}, // self loop
		{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 0},
	}, false)
	if g.NumEdges() != 3 {
		t.Fatalf("M = %d, want 3", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildWeightedKeepsWeights(t *testing.T) {
	g := Build(3, []Edge{
		{Src: 0, Dst: 2, W: 7},
		{Src: 0, Dst: 1, W: 3},
	}, true)
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	adj, ws := g.Neighbors(0), g.Weights(0)
	if adj[0] != 1 || ws[0] != 3 || adj[1] != 2 || ws[1] != 7 {
		t.Fatalf("adj=%v ws=%v", adj, ws)
	}
}

func TestHasEdge(t *testing.T) {
	g := tiny()
	cases := []struct {
		u, v int32
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 2, true}, {2, 0, true}, {3, 1, true},
		{1, 0, false}, {0, 3, false}, {2, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestTranspose(t *testing.T) {
	g := tiny()
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edge count %d != %d", tr.NumEdges(), g.NumEdges())
	}
	for u := int32(0); u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if !tr.HasEdge(v, u) {
				t.Errorf("transpose missing edge (%d,%d)", v, u)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		g := Urand(50, 120, seed)
		tt := g.Transpose().Transpose()
		if tt.N != g.N || len(tt.NA) != len(g.NA) {
			return false
		}
		for i := range g.OA {
			if g.OA[i] != tt.OA[i] {
				return false
			}
		}
		for i := range g.NA {
			if g.NA[i] != tt.NA[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTransposePreservesWeights(t *testing.T) {
	g := RoadGrid(8, 8, 10, 42)
	tr := g.Transpose()
	if !tr.Weighted() {
		t.Fatal("transpose lost weights")
	}
	// Weighted road graphs are symmetric with symmetric weights, so the
	// multiset of (u,v,w) must survive a transpose.
	for u := int32(0); u < g.N; u++ {
		adj, ws := g.Neighbors(u), g.Weights(u)
		for i, v := range adj {
			tadj, tws := tr.Neighbors(v), tr.Weights(v)
			found := false
			for j, x := range tadj {
				if x == u && tws[j] == ws[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("weighted edge (%d,%d,%d) missing from transpose", u, v, ws[i])
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := tiny()
	g.NA[0] = 99
	if g.Validate() == nil {
		t.Error("Validate missed out-of-range neighbor")
	}
	g = tiny()
	g.OA[1] = 5
	if g.Validate() == nil {
		t.Error("Validate missed non-monotone OA")
	}
	g = tiny()
	g.NA[0], g.NA[1] = g.NA[1], g.NA[0]
	if g.Validate() == nil {
		t.Error("Validate missed unsorted adjacency")
	}
}

func TestComputeStats(t *testing.T) {
	g := tiny()
	s := g.ComputeStats()
	if s.Vertices != 4 || s.Edges != 5 || s.MaxDegree != 2 || s.Zeros != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgDegree != 1.25 {
		t.Errorf("AvgDegree = %g", s.AvgDegree)
	}
}

func TestGeneratorsProduceValidGraphs(t *testing.T) {
	gens := map[string]*Graph{
		"urand":      Urand(1000, 4000, 1),
		"kron":       Kron(10, 8, 2),
		"twitter":    PowerLaw(1000, 8, 0.2, false, 3),
		"friendster": PowerLaw(1000, 8, 0.1, true, 4),
		"web":        WebLike(1024, 8, 5),
		"road":       RoadGrid(32, 32, 255, 6),
	}
	for name, g := range gens {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s: no edges", name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Kron(10, 8, 99)
	b := Kron(10, 8, 99)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same-seed graphs differ in edge count")
	}
	for i := range a.NA {
		if a.NA[i] != b.NA[i] {
			t.Fatal("same-seed graphs differ in adjacency")
		}
	}
	c := Kron(10, 8, 100)
	same := a.NumEdges() == c.NumEdges()
	if same {
		for i := range a.NA {
			if a.NA[i] != c.NA[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestUndirectedGeneratorsAreSymmetric(t *testing.T) {
	for name, g := range map[string]*Graph{
		"urand": Urand(500, 1500, 7),
		"kron":  Kron(9, 8, 8),
		"road":  RoadGrid(16, 16, 10, 9),
	} {
		for u := int32(0); u < g.N; u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					t.Fatalf("%s: edge (%d,%d) has no reverse", name, u, v)
				}
			}
		}
	}
}

func TestPowerLawIsHeavyTailed(t *testing.T) {
	g := PowerLaw(20000, 8, 0.1, false, 11)
	s := g.ComputeStats()
	// A power-law graph must have a hub far above the average degree.
	if float64(s.MaxDegree) < 15*s.AvgDegree {
		t.Errorf("max degree %d vs avg %.1f: not heavy tailed", s.MaxDegree, s.AvgDegree)
	}
}

func TestUrandIsNotHeavyTailed(t *testing.T) {
	g := Urand(20000, 160000, 12)
	s := g.ComputeStats()
	if float64(s.MaxDegree) > 5*s.AvgDegree {
		t.Errorf("max degree %d vs avg %.1f: urand should be concentrated", s.MaxDegree, s.AvgDegree)
	}
}

func TestWebLikeHasLocality(t *testing.T) {
	g := WebLike(4096, 8, 13)
	var local, total int64
	for u := int32(0); u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			d := int64(v) - int64(u)
			if d < 0 {
				d = -d
			}
			if d < 4096/8 {
				local++
			}
			total++
		}
	}
	if total == 0 || float64(local)/float64(total) < 0.6 {
		t.Errorf("web-like locality %.2f too low", float64(local)/float64(total))
	}
}

func TestRoadGridShape(t *testing.T) {
	g := RoadGrid(50, 40, 255, 14)
	if g.NumVertices() != 2000 {
		t.Fatalf("N = %d", g.NumVertices())
	}
	s := g.ComputeStats()
	if s.MaxDegree > 12 {
		t.Errorf("road max degree %d too high", s.MaxDegree)
	}
	if s.AvgDegree < 2 || s.AvgDegree > 5 {
		t.Errorf("road avg degree %.2f out of range", s.AvgDegree)
	}
	if !g.Weighted() {
		t.Error("road graph must be weighted")
	}
	for _, w := range g.W {
		if w < 1 || w > 255 {
			t.Fatalf("weight %d out of [1,255]", w)
		}
	}
}

func TestAddUnitWeights(t *testing.T) {
	g := Urand(100, 300, 15)
	wg := AddUnitWeights(g, 64, 16)
	if !wg.Weighted() {
		t.Fatal("AddUnitWeights did not weight the graph")
	}
	if wg.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
	for _, w := range wg.W {
		if w < 1 || w > 64 {
			t.Fatalf("weight %d out of range", w)
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := tiny()
	h := DegreeHistogram(g)
	// Degrees are 2,1,1,1 -> bucket0: 3 (deg 1), bucket1: 1 (deg 2).
	if h[0] != 3 || h[1] != 1 {
		t.Errorf("histogram = %v", h)
	}
	var total int64
	for _, c := range h {
		total += c
	}
	if total != int64(g.N) {
		t.Errorf("histogram total %d != N", total)
	}
}

// refAdjacency is the naive build the counting-sort routines are held
// to: a set of neighbours per vertex, self-loops dropped, sorted.
func refAdjacency(n int32, edges []Edge, mirrored bool) [][]int32 {
	sets := make([]map[int32]bool, n)
	add := func(u, v int32) {
		if u == v {
			return
		}
		if sets[u] == nil {
			sets[u] = map[int32]bool{}
		}
		sets[u][v] = true
	}
	for _, e := range edges {
		add(e.Src, e.Dst)
		if mirrored {
			add(e.Dst, e.Src)
		}
	}
	adj := make([][]int32, n)
	for u, set := range sets {
		for v := range set {
			adj[u] = append(adj[u], v)
		}
		slices.Sort(adj[u])
	}
	return adj
}

func sameAdjacency(g *Graph, want [][]int32) bool {
	if int(g.N) != len(want) || g.Validate() != nil {
		return false
	}
	for u, adj := range want {
		if !slices.Equal(g.Neighbors(int32(u)), adj) {
			return false
		}
	}
	return true
}

func split(edges []Edge) (src, dst []int32) {
	for _, e := range edges {
		src, dst = append(src, e.Src), append(dst, e.Dst)
	}
	return src, dst
}

func TestBuildPropertyRandomEdgeLists(t *testing.T) {
	// Property: Build (directed) and the generators' mirrored build
	// agree with the naive reference on arbitrary edge lists. n starts
	// at 1 (every edge a self-loop); the ID range is sometimes narrower
	// than n, which leaves isolated vertices and forces duplicates.
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int32(nRaw%200) + 1
		m := int(mRaw % 2000)
		r := rand.New(rand.NewPCG(seed, 1))
		ids := 1 + r.IntN(int(n))
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: int32(r.IntN(ids)), Dst: int32(r.IntN(ids))}
		}
		src, dst := split(edges)
		mirrored := buildCSR(n, src, dst, true)
		return sameAdjacency(Build(n, edges, false), refAdjacency(n, edges, false)) &&
			sameAdjacency(mirrored, refAdjacency(n, edges, true)) &&
			graphsEqual(mirrored, mirrored.Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBuildPanicsUnchanged pins the text of Build's argument panics on
// both the weighted path and the unweighted one that replaced the
// per-vertex sort.
func TestBuildPanicsUnchanged(t *testing.T) {
	panicText := func(f func()) (text string) {
		defer func() { text = fmt.Sprint(recover()) }()
		f()
		return
	}
	for _, weighted := range []bool{false, true} {
		for _, c := range []struct {
			n    int32
			e    Edge
			want string
		}{
			{4, Edge{Src: 1, Dst: 4}, "graph: edge (1,4) out of range [0,4)"},
			{4, Edge{Src: -1, Dst: 2}, "graph: edge (-1,2) out of range [0,4)"},
			{4, Edge{Src: 7, Dst: 7}, "graph: edge (7,7) out of range [0,4)"},
			{0, Edge{}, "graph: Build with non-positive vertex count"},
		} {
			got := panicText(func() { Build(c.n, []Edge{{Src: 0, Dst: 1}, c.e}, weighted) })
			if got != c.want {
				t.Errorf("Build(%d, %+v, weighted=%v) panicked with %q, want %q", c.n, c.e, weighted, got, c.want)
			}
		}
	}
}

// TestRMATThresholdExact checks the integer form of the R-MAT quadrant
// test: for each threshold T of the canonical initiator, k < T must
// mean exactly what Float64() < p meant for the 53-bit draw k.
func TestRMATThresholdExact(t *testing.T) {
	a, b, c := 0.57, 0.19, 0.19 // variables: the sums must round as rmat's do
	for _, p := range []float64{a, a + b, a + b + c, 0, 1, 0.25, 1.0 / 3} {
		T := rmatThreshold(p)
		ks := []uint64{0, 1<<53 - 1}
		for d := uint64(0); d <= 4; d++ {
			if k := T + d - 2; k < 1<<53 { // T-2..T+2; wraps past 2^53 when T < 2
				ks = append(ks, k)
			}
		}
		for _, k := range ks {
			if float, integer := float64(k)/(1<<53) < p, k < T; float != integer {
				t.Errorf("p=%v T=%d k=%d: Float64()<p is %v, k<T is %v", p, T, k, float, integer)
			}
		}
	}
}

// TestMirroredGraphsShareTheirTranspose: a graph built from undirected
// edges is its own transpose, element for element, so TransposeCached
// hands back the graph itself; every other graph still gets a real one.
func TestMirroredGraphsShareTheirTranspose(t *testing.T) {
	for name, g := range map[string]*Graph{
		"urand":      Urand(1000, 4000, 1),
		"kron":       Kron(10, 8, 2),
		"twitter":    PowerLaw(1000, 8, 0.2, false, 3),
		"friendster": PowerLaw(1000, 8, 0.1, true, 4),
	} {
		if !graphsEqual(g, g.Transpose()) {
			t.Errorf("%s: Transpose() differs from the graph", name)
		}
		if g.TransposeCached() != g {
			t.Errorf("%s: TransposeCached() built a transpose of a mirrored graph", name)
		}
	}

	kron := Kron(10, 8, 2)
	var blob bytes.Buffer
	if err := kron.WriteBinary(&blob); err != nil {
		t.Fatal(err)
	}
	fromBinary, err := ReadBinary(&blob)
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	var edges []Edge
	for u := int32(0); u < kron.N; u++ {
		for _, v := range kron.Neighbors(u) {
			edges = append(edges, Edge{Src: u, Dst: v})
		}
	}
	for name, g := range map[string]*Graph{
		"web":          WebLike(1024, 8, 5),
		"road":         RoadGrid(32, 32, 255, 6),
		"unitweights":  AddUnitWeights(kron, 64, 7),
		"ReadBinary":   fromBinary,
		"ReadEdgeList": fromText,
		"Build":        Build(kron.N, edges, false),
	} {
		tr := g.TransposeCached()
		if tr == g {
			t.Errorf("%s: TransposeCached() returned the graph itself", name)
		}
		if !graphsEqual(tr, g.Transpose()) {
			t.Errorf("%s: TransposeCached() differs from Transpose()", name)
		}
		if tr.TransposeCached() != g {
			t.Errorf("%s: the transpose does not link back to its graph", name)
		}
	}
}
