package kernels

import (
	"graphmem/internal/cache"
	"graphmem/internal/graph"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// BFS is GAP's direction-optimizing breadth-first search: top-down steps
// process the frontier queue and probe parent[NA[i]] (irregular), and
// when the frontier grows past a threshold the kernel switches to
// bottom-up steps that scan all unvisited vertices probing a frontier
// bitmap through the incoming-neighbor stream.
type BFS struct {
	g   *graph.Graph // out edges
	in  *graph.Graph // incoming edges for bottom-up steps
	src int32

	parent []int32
	depth  []int32

	regOA, regNA, regInOA, regInNA    *mem.Region
	regParent, regFrontier, regBitmap *mem.Region

	// Alpha and Beta are GAP's direction-switch parameters.
	Alpha, Beta int64

	// Sources to run (restarting); defaults to a few spread vertices.
	Sources []int32
}

// NewBFS prepares BFS on g.
func NewBFS(g *graph.Graph, space *mem.Space) Instance {
	n := int64(g.N)
	b := &BFS{
		g:      g,
		in:     g.TransposeCached(),
		parent: make([]int32, n),
		depth:  make([]int32, n),
		Alpha:  14,
		Beta:   24,
	}
	b.regOA = space.Alloc("bfs.oa", uint64(n+1)*8, 8, mem.ClassRegular)
	b.regNA = space.Alloc("bfs.na", uint64(g.NumEdges())*4, 4, mem.ClassStreaming)
	b.regInOA = space.Alloc("bfs.in_oa", uint64(n+1)*8, 8, mem.ClassRegular)
	b.regInNA = space.Alloc("bfs.in_na", uint64(b.in.NumEdges())*4, 4, mem.ClassStreaming)
	b.regParent = space.Alloc("bfs.parent", uint64(n)*4, 4, mem.ClassIrregular)
	b.regFrontier = space.Alloc("bfs.frontier", uint64(n)*4, 4, mem.ClassRegular)
	b.regBitmap = space.Alloc("bfs.bitmap", uint64((n+63)/64)*8, 8, mem.ClassIrregular)
	b.Sources = defaultSources(g, 4)
	return b
}

// defaultSources picks k deterministic non-isolated source vertices
// spread over the ID space.
func defaultSources(g *graph.Graph, k int) []int32 {
	var srcs []int32
	step := g.N / int32(k)
	if step == 0 {
		step = 1
	}
	for v := int32(0); v < g.N && len(srcs) < k; v += step {
		u := v
		for u < g.N && g.Degree(u) == 0 {
			u++
		}
		if u < g.N {
			srcs = append(srcs, u)
		}
	}
	if len(srcs) == 0 {
		srcs = []int32{0}
	}
	return srcs
}

// IrregularRegions implements Instance.
func (b *BFS) IrregularRegions() []*mem.Region {
	return []*mem.Region{b.regParent, b.regBitmap}
}

// Oracle implements Instance: T-OPT covers the parent array scheduled
// by the out-neighbor stream.
func (b *BFS) Oracle() cache.NextUseOracle {
	return NewTransposeOracle(b.regParent, b.g.NA, b.g.N)
}

// Parent returns the parent array of the last source processed.
func (b *BFS) Parent() []int32 { return b.parent }

// Depth returns the depth array of the last source processed.
func (b *BFS) Depth() []int32 { return b.depth }

// Run implements Instance.
func (b *BFS) Run(tr *trace.Tracer) {
	oa := newTraced(tr, b.regOA)
	na := newTraced(tr, b.regNA)
	inOA := newTraced(tr, b.regInOA)
	inNA := newTraced(tr, b.regInNA)
	parent := newTraced(tr, b.regParent)
	frontier := newTraced(tr, b.regFrontier)
	bitmap := newTraced(tr, b.regBitmap)

	pcFront := tr.Site("bfs.td.load_frontier")
	pcOA := tr.Site("bfs.td.load_oa")
	pcNA := tr.Site("bfs.td.load_na")
	pcProbe := tr.Site("bfs.td.probe_parent")
	pcClaim := tr.Site("bfs.td.store_parent")
	pcPush := tr.Site("bfs.td.push_frontier")
	pcBuDepth := tr.Site("bfs.bu.load_parent")
	pcBuOA := tr.Site("bfs.bu.load_in_oa")
	pcBuNA := tr.Site("bfs.bu.load_in_na")
	pcBuBit := tr.Site("bfs.bu.probe_bitmap")
	pcBuClaim := tr.Site("bfs.bu.store_parent")
	pcBmStore := tr.Site("bfs.bm.store_bitmap")

	var edgesDone uint64
	for _, src := range b.Sources {
		if tr.Done() {
			return
		}
		b.runOne(tr, src, &edgesDone,
			oa, na, inOA, inNA, parent, frontier, bitmap,
			pcFront, pcOA, pcNA, pcProbe, pcClaim, pcPush,
			pcBuDepth, pcBuOA, pcBuNA, pcBuBit, pcBuClaim, pcBmStore)
	}
}

func (b *BFS) runOne(tr *trace.Tracer, src int32, edgesDone *uint64,
	oa, na, inOA, inNA, parent, frontier, bitmap traced,
	pcFront, pcOA, pcNA, pcProbe, pcClaim, pcPush,
	pcBuDepth, pcBuOA, pcBuNA, pcBuBit, pcBuClaim, pcBmStore uint64) {

	g := b.g
	for i := range b.parent {
		b.parent[i] = -1
		b.depth[i] = -1
	}
	b.parent[src] = src
	b.depth[src] = 0

	cur := []int32{src}
	depth := int32(0)
	for len(cur) > 0 && !tr.Done() {
		depth++
		// Direction heuristic: edges out of the frontier vs remaining.
		var frontEdges int64
		for _, u := range cur {
			frontEdges += g.Degree(u)
		}
		if frontEdges > g.NumEdges()/b.Alpha {
			cur, depth = b.bottomUpSteps(tr, cur, depth, edgesDone,
				inOA, inNA, parent, bitmap, pcBuDepth, pcBuOA, pcBuNA, pcBuBit, pcBuClaim, pcBmStore)
			continue
		}
		var next []int32
		for j, u := range cur {
			if tr.Done() {
				return
			}
			fSeq := frontier.load(pcFront, int64(j), trace.NoDep)
			oaSeq := oa.load(pcOA, int64(u)+1, fSeq)
			tr.Exec(3)
			lo, hi := g.OA[u], g.OA[u+1]
			for i := lo; i < hi; i++ {
				// Value-annotated: IMP learns the parent[NA[i]] probe.
				naSeq := na.loadv(pcNA, i, oaSeq, uint64(g.NA[i]))
				v := g.NA[i]
				parent.load(pcProbe, int64(v), naSeq)
				tr.Exec(2)
				if b.parent[v] == -1 {
					b.parent[v] = u
					b.depth[v] = depth
					parent.store(pcClaim, int64(v), naSeq)
					frontier.store(pcPush, int64(len(next)), trace.NoDep)
					next = append(next, v)
					tr.Exec(2)
				}
			}
			*edgesDone += uint64(hi - lo)
			tr.Progress(*edgesDone)
		}
		cur = next
	}
}

// bottomUpSteps runs bottom-up iterations until the frontier shrinks
// below N/Beta, then converts the bitmap back to a queue.
func (b *BFS) bottomUpSteps(tr *trace.Tracer, cur []int32, depth int32, edgesDone *uint64,
	inOA, inNA, parent, bitmap traced,
	pcBuDepth, pcBuOA, pcBuNA, pcBuBit, pcBuClaim, pcBmStore uint64) ([]int32, int32) {

	g, in := b.g, b.in
	n := int64(g.N)
	front := make([]uint64, (n+63)/64)
	for _, u := range cur {
		front[u>>6] |= 1 << (uint(u) & 63)
		bitmap.store(pcBmStore, int64(u>>6), trace.NoDep)
	}
	frontCount := int64(len(cur))

	for frontCount > 0 && !tr.Done() {
		next := make([]uint64, len(front))
		var nextCount int64
		for v := int64(0); v < n; v++ {
			if tr.Done() {
				return nil, depth
			}
			pSeq := parent.load(pcBuDepth, v, trace.NoDep)
			tr.Exec(2)
			if b.parent[v] != -1 {
				continue
			}
			oaSeq := inOA.load(pcBuOA, v+1, pSeq)
			lo, hi := in.OA[v], in.OA[v+1]
			for i := lo; i < hi; i++ {
				naSeq := inNA.load(pcBuNA, i, oaSeq)
				u := in.NA[i]
				bitmap.load(pcBuBit, int64(u>>6), naSeq)
				tr.Exec(2)
				if front[u>>6]&(1<<(uint(u)&63)) != 0 {
					b.parent[v] = u
					b.depth[v] = depth
					parent.store(pcBuClaim, v, naSeq)
					next[v>>6] |= 1 << (uint(v) & 63)
					bitmap.store(pcBmStore, v>>6, trace.NoDep)
					nextCount++
					tr.Exec(2)
					break
				}
			}
			*edgesDone += uint64(hi - lo)
		}
		tr.Progress(*edgesDone)
		front = next
		frontCount = nextCount
		depth++
		if frontCount < n/b.Beta {
			break
		}
	}
	// Convert bitmap frontier back to a queue for top-down. depth was
	// incremented past the last assigned level; hand back the last
	// assigned one so the caller's loop-top increment lines up.
	var out []int32
	for v := int64(0); v < n; v++ {
		if front[v>>6]&(1<<(uint(v)&63)) != 0 {
			out = append(out, int32(v))
		}
	}
	return out, depth - 1
}
