// Package trace defines the memory-access trace layer between the
// instrumented workloads (internal/kernels) and the timing simulator
// (internal/sim).
//
// The reproduction is execution-driven: a kernel computes its real
// result in Go and, at every static access site touching a simulated
// data structure, emits a Record describing the access — synthetic PC,
// address, size, read/write, the number of non-memory instructions since
// the previous record, and an optional dependency edge pointing at an
// earlier record (the load producing the index of an indirect access).
// The stream of Records is exactly the information ChampSim gets from a
// SimPoint trace, which is why this substitution preserves the paper's
// behaviour (see DESIGN.md).
package trace

import (
	"fmt"

	"graphmem/internal/mem"
)

// Record is one traced memory instruction, preceded by NonMem untraced
// non-memory instructions.
type Record struct {
	// PC is the synthetic program counter of the access site.
	PC uint64
	// Addr is the byte address accessed.
	Addr mem.Addr
	// Size is the access width in bytes.
	Size uint8
	// Write marks a store.
	Write bool
	// NonMem is the number of non-memory instructions executed since
	// the previous record (models the scalar work between accesses).
	NonMem uint16
	// DepDist, when positive, says this access's address depends on the
	// value loaded by the record DepDist positions earlier in the
	// stream; the simulator will not issue this access until that load
	// completes. Zero means no traced dependency.
	DepDist int32
	// Value is the architectural value this load returns, when the
	// kernel annotated the site via LoadValue (index loads into edge
	// arrays). The simulator stays address-only; the value exists
	// solely as a peek for indirect-memory prefetchers.
	Value uint64
	// HasValue reports whether Value is meaningful.
	HasValue bool
}

// Sink consumes trace records. Access returns false when the consumer
// needs no more records, letting the generating kernel stop early.
type Sink interface {
	Access(r Record) bool
}

// ProgressSink is optionally implemented by sinks that want the
// kernel's traversal progress (edges processed); the T-OPT replacement
// policy uses it as its notion of "current time" in the reference
// stream.
type ProgressSink interface {
	SetProgress(edges uint64)
}

// NoDep marks an access without a traced dependency.
const NoDep int64 = -1

// siteBase is the synthetic code segment base; sites get consecutive
// 8-byte slots so distinct sites never collide in predictor tags.
const siteBase uint64 = 0x400000

// Tracer is the instrumentation handle passed to kernels. It allocates
// per-site PCs, numbers records so kernels can express dependency
// edges, and forwards everything to a Sink.
type Tracer struct {
	sink    Sink
	prog    ProgressSink
	seq     int64
	done    bool
	pending uint16 // non-memory instructions accumulated since last record
	sites   []string
}

// New creates a Tracer feeding the given sink.
func New(sink Sink) *Tracer {
	t := &Tracer{sink: sink}
	t.prog, _ = sink.(ProgressSink)
	return t
}

// Site registers a static access site and returns its synthetic PC.
// Calling Site twice with the same name returns distinct PCs; sites are
// positional, not keyed.
func (t *Tracer) Site(name string) uint64 {
	pc := siteBase + uint64(len(t.sites))*8
	t.sites = append(t.sites, name)
	return pc
}

// SiteName resolves a PC generated by Site back to its name, for
// reporting. Unknown PCs return a hex string.
func (t *Tracer) SiteName(pc uint64) string {
	i := (pc - siteBase) / 8
	if pc >= siteBase && i < uint64(len(t.sites)) {
		return t.sites[i]
	}
	return fmt.Sprintf("pc_%#x", pc)
}

// Done reports that the sink needs no more records; kernels should
// check it in their outer loops and return early.
func (t *Tracer) Done() bool { return t.done }

// Exec accounts n non-memory instructions; they are attached to the
// next emitted record.
func (t *Tracer) Exec(n int) {
	if t.done {
		return
	}
	v := uint32(t.pending) + uint32(n)
	if v > 0xffff {
		v = 0xffff
	}
	t.pending = uint16(v)
}

// Seq returns the sequence number the next record will get.
func (t *Tracer) Seq() int64 { return t.seq }

// Load emits a read of size bytes at addr from the given site. dep is
// the sequence number of the record whose loaded value produced this
// address (NoDep if none). It returns this record's sequence number.
func (t *Tracer) Load(pc uint64, addr mem.Addr, size int, dep int64) int64 {
	return t.emit(pc, addr, size, false, dep)
}

// LoadValue emits a read like Load, additionally annotating the record
// with the architectural value the load returns. Kernels use it on the
// index loads of `prop[col[i]]` pairs so value-aware prefetchers (IMP)
// can learn the gather's base+shift mapping.
func (t *Tracer) LoadValue(pc uint64, addr mem.Addr, size int, dep int64, value uint64) int64 {
	return t.emitValue(pc, addr, size, false, dep, value, true)
}

// Store emits a write of size bytes at addr from the given site.
func (t *Tracer) Store(pc uint64, addr mem.Addr, size int, dep int64) int64 {
	return t.emit(pc, addr, size, true, dep)
}

func (t *Tracer) emit(pc uint64, addr mem.Addr, size int, write bool, dep int64) int64 {
	return t.emitValue(pc, addr, size, write, dep, 0, false)
}

func (t *Tracer) emitValue(pc uint64, addr mem.Addr, size int, write bool, dep int64, value uint64, hasValue bool) int64 {
	if t.done {
		return t.seq
	}
	var depDist int32
	if dep >= 0 {
		d := t.seq - dep
		if d <= 0 {
			panic("trace: dependency on a future or current record")
		}
		if d <= int64(^uint32(0)>>1) {
			depDist = int32(d)
		}
	}
	r := Record{
		PC:       pc,
		Addr:     addr,
		Size:     uint8(size),
		Write:    write,
		NonMem:   t.pending,
		DepDist:  depDist,
		Value:    value,
		HasValue: hasValue,
	}
	t.pending = 0
	seq := t.seq
	t.seq++
	if !t.sink.Access(r) {
		t.done = true
	}
	return seq
}

// Progress forwards the kernel's traversal progress (edges processed so
// far) to sinks that care.
func (t *Tracer) Progress(edges uint64) {
	if t.prog != nil {
		t.prog.SetProgress(edges)
	}
}

// CountingSink counts records and optionally stops after a limit.
type CountingSink struct {
	// Limit stops the trace after this many records (0 = unlimited).
	Limit int64
	// Records, Loads, Stores and Instructions accumulate counts;
	// Instructions includes the NonMem preludes.
	Records, Loads, Stores, Instructions int64
}

// Access implements Sink.
func (c *CountingSink) Access(r Record) bool {
	c.Records++
	c.Instructions += int64(r.NonMem) + 1
	if r.Write {
		c.Stores++
	} else {
		c.Loads++
	}
	return c.Limit == 0 || c.Records < c.Limit
}

// SliceSink records everything into memory; intended for tests and
// small analyses.
type SliceSink struct {
	// Limit stops the trace after this many records (0 = unlimited).
	Limit int64
	// Recs holds the captured records.
	Recs []Record
}

// Access implements Sink.
func (s *SliceSink) Access(r Record) bool {
	s.Recs = append(s.Recs, r)
	return s.Limit == 0 || int64(len(s.Recs)) < s.Limit
}
