package mem

import (
	"fmt"
)

// CoreSpaceBits is log2 of the address-space window reserved per core.
// Cores get disjoint 1 TiB windows, which models the multi-programmed
// mixes the paper evaluates (each thread is a separate process with a
// private physical footprint).
const CoreSpaceBits = 40

// RegionClass categorizes a data structure by the access pattern an
// expert would expect from it. It drives the Expert Programmer baseline
// (Section V-C) and the T-OPT replacement policy's notion of "graph
// property data".
type RegionClass uint8

const (
	// ClassRegular marks sequentially or densely accessed structures
	// (offset arrays scanned in order, frontier queues, scalars).
	ClassRegular RegionClass = iota
	// ClassStreaming marks large structures scanned once in order
	// (the neighbors array during a full traversal).
	ClassStreaming
	// ClassIrregular marks structures indexed through the neighbors
	// array (per-vertex property arrays gathered data-dependently).
	// The Expert Programmer baseline routes these to the SDC.
	ClassIrregular
)

// String implements fmt.Stringer.
func (c RegionClass) String() string {
	switch c {
	case ClassRegular:
		return "regular"
	case ClassStreaming:
		return "streaming"
	case ClassIrregular:
		return "irregular"
	default:
		return fmt.Sprintf("RegionClass(%d)", uint8(c))
	}
}

// Region is a named, contiguous allocation in the synthetic address
// space corresponding to one data structure of a workload.
type Region struct {
	Name  string
	Base  Addr
	Size  uint64
	Class RegionClass
	// ElemSize is the element width in bytes (4 for the 4 B property
	// arrays of Table II, 8 for BC's pair data, ...).
	ElemSize uint64
}

// Contains reports whether a falls inside the region.
func (r *Region) Contains(a Addr) bool {
	return a >= r.Base && uint64(a-r.Base) < r.Size
}

// ElemAddr returns the address of element i of the region.
func (r *Region) ElemAddr(i int64) Addr {
	return r.Base + Addr(uint64(i)*r.ElemSize)
}

// Space is a per-core synthetic address-space allocator plus a region
// registry. Allocations are page-aligned and separated by a guard page
// so distinct structures never share a cache block or page.
type Space struct {
	core    int
	next    Addr
	regions []*Region
}

// NewSpace creates the allocator for the given core index. Each core's
// space starts at core << CoreSpaceBits (plus one page so that address 0
// is never handed out).
func NewSpace(core int) *Space {
	if core < 0 || core >= 1<<(AddrBits-CoreSpaceBits) {
		panic(fmt.Sprintf("mem: core index %d out of range", core))
	}
	return &Space{
		core: core,
		next: Addr(uint64(core)<<CoreSpaceBits) + PageSize,
	}
}

// Core returns the core index the space belongs to.
func (s *Space) Core() int { return s.core }

// Alloc reserves size bytes for a named structure of the given class and
// element width and returns its region. The base is page-aligned.
func (s *Space) Alloc(name string, size, elemSize uint64, class RegionClass) *Region {
	if size == 0 {
		size = elemSize
	}
	if elemSize == 0 {
		panic("mem: zero element size for region " + name)
	}
	r := &Region{Name: name, Base: s.next, Size: size, Class: class, ElemSize: elemSize}
	// Round the cursor up to the next page and add a guard page.
	end := uint64(s.next) + size
	end = (end + PageSize - 1) &^ uint64(PageSize-1)
	s.next = Addr(end) + PageSize
	s.regions = append(s.regions, r)
	return r
}

// Regions returns all allocated regions in allocation order.
func (s *Space) Regions() []*Region { return s.regions }
