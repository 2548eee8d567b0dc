// Package mem provides the shared memory-system plumbing used by every
// component of the simulator: response types, block and page
// arithmetic, a synthetic per-core address-space allocator and a registry
// of named data-structure regions.
//
// The simulator is address-driven: no data values flow through it. A
// workload (see internal/kernels) computes its real result natively in Go
// and, while doing so, emits the addresses it touches. Those addresses
// live in a synthetic 48-bit physical address space managed by this
// package.
package mem

import "fmt"

// Fundamental geometry constants shared across the hierarchy.
const (
	// BlockBits is log2 of the cache block size.
	BlockBits = 6
	// BlockSize is the cache block (line) size in bytes.
	BlockSize = 1 << BlockBits
	// PageBits is log2 of the page size.
	PageBits = 12
	// PageSize is the virtual-memory page size in bytes.
	PageSize = 1 << PageBits
	// AddrBits is the number of physical address bits (Table IV assumes
	// 48-bit physical addresses).
	AddrBits = 48
)

// Addr is a byte address in the synthetic physical address space.
type Addr uint64

// Block returns the cache-block number containing a.
func (a Addr) Block() BlockAddr { return BlockAddr(a >> BlockBits) }

// Page returns the page number containing a.
func (a Addr) Page() PageAddr { return PageAddr(a >> PageBits) }

// BlockOffset returns the byte offset of a within its cache block.
func (a Addr) BlockOffset() uint64 { return uint64(a) & (BlockSize - 1) }

// BlockAddr is a cache-block (line) number: Addr >> BlockBits.
type BlockAddr uint64

// Addr returns the byte address of the first byte of the block.
func (b BlockAddr) Addr() Addr { return Addr(b << BlockBits) }

// Page returns the page number containing the block.
func (b BlockAddr) Page() PageAddr { return PageAddr(b >> (PageBits - BlockBits)) }

// PageAddr is a page number: Addr >> PageBits.
type PageAddr uint64

// Addr returns the byte address of the first byte of the page.
func (p PageAddr) Addr() Addr { return Addr(p << PageBits) }

// ServedBy identifies the hierarchy level that ultimately supplied the
// data for a request. It is reported back up the ladder so that callers
// (stats, the stride profiler for Fig. 3) can attribute the access.
type ServedBy uint8

// Hierarchy levels a request can be served from.
const (
	ServedNone ServedBy = iota // e.g. store buffered, nothing fetched
	ServedSDC
	ServedL1D
	ServedL2
	ServedLLC
	ServedRemote // another core's cache or SDC via the directory
	ServedDRAM
)

// String implements fmt.Stringer.
func (s ServedBy) String() string {
	switch s {
	case ServedNone:
		return "none"
	case ServedSDC:
		return "SDC"
	case ServedL1D:
		return "L1D"
	case ServedL2:
		return "L2C"
	case ServedLLC:
		return "LLC"
	case ServedRemote:
		return "remote"
	case ServedDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("ServedBy(%d)", uint8(s))
	}
}

// Response describes the outcome of a request: when the data is ready
// and which level provided it.
type Response struct {
	// Ready is the global CPU-cycle timestamp at which the data is
	// available to the requester.
	Ready int64
	// Source is the level that supplied the data.
	Source ServedBy
}

// Latency returns the request latency in cycles given its issue time.
func (r Response) Latency(issue int64) int64 { return r.Ready - issue }

// ValueHint is the loaded-value peek an indirect-memory prefetcher needs
// to learn base+shift patterns from `prop[col[i]]` index-then-gather
// pairs. The simulator is address-only, so kernels opt in per site: a
// load annotated with its architectural value sets Value/HasValue, and a
// load that depends on an annotated producer carries the producer's PC
// and value in the Dep* fields.
type ValueHint struct {
	// Value is the architectural value the load returns, when the
	// trace site annotates it (index loads into an edge array).
	Value uint64
	// HasValue reports whether Value is meaningful.
	HasValue bool
	// DepPC is the PC of the producing load this access depends on,
	// when that producer was value-annotated.
	DepPC uint64
	// DepValue is the producer's loaded value.
	DepValue uint64
	// DepHasValue reports whether DepPC/DepValue are meaningful.
	DepHasValue bool
}

// AccessInfo describes a demand access as seen by a prefetcher:
// the block plus optional context (PC, hit/miss at the attached level,
// requesting core, and the value peek). Zero-valued context fields mean
// "unknown" — functional warming, for example, has no PC to offer.
type AccessInfo struct {
	// PC is the trace-site program counter, or 0 when unavailable.
	PC uint64
	// Addr is the full byte address of the access.
	Addr Addr
	// Blk is the accessed block.
	Blk BlockAddr
	// Hit says whether the access hit the attached cache.
	Hit bool
	// Core is the requesting core (meaningful for shared-level
	// prefetchers observing multiple cores).
	Core int
	ValueHint
}
