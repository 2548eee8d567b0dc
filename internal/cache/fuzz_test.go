package cache

import (
	"testing"

	"graphmem/internal/mem"
)

// Differential fuzzing for the set-associative cache and the MSHR file,
// each against a deliberately naive reference model. The fuzz input is
// an op stream; op streams stay within the legal-usage envelope the
// simulator guarantees (monotonic time, Complete only after Allocate).

// refLine is one entry of the reference model: per set, an ordered
// slice with the most recently stamped line last. That ordering is
// exactly the cache's LRU-stamp ordering, independent of way indices.
type refLine struct {
	blk   mem.BlockAddr
	dirty bool
}

type refCache struct {
	sets [][]refLine
	ways int
}

func newRefCache(nsets, ways int) *refCache {
	return &refCache{sets: make([][]refLine, nsets), ways: ways}
}

func (r *refCache) set(blk mem.BlockAddr) int { return int(uint64(blk) % uint64(len(r.sets))) }

func (r *refCache) find(blk mem.BlockAddr) (setIdx, pos int) {
	si := r.set(blk)
	for i, ln := range r.sets[si] {
		if ln.blk == blk {
			return si, i
		}
	}
	return si, -1
}

// lookup mirrors Cache.Lookup: hit moves to MRU and may dirty; miss
// changes nothing.
func (r *refCache) lookup(blk mem.BlockAddr, write bool) bool {
	si, i := r.find(blk)
	if i < 0 {
		return false
	}
	ln := r.sets[si][i]
	ln.dirty = ln.dirty || write
	r.sets[si] = append(append(r.sets[si][:i], r.sets[si][i+1:]...), ln)
	return true
}

// fill mirrors Cache.Fill: a refill only re-dirties; otherwise insert
// at MRU, evicting the LRU line of a full set.
func (r *refCache) fill(blk mem.BlockAddr, write bool) (victim refLine, evicted bool) {
	si, i := r.find(blk)
	if i >= 0 {
		r.sets[si][i].dirty = r.sets[si][i].dirty || write
		return refLine{}, false
	}
	if len(r.sets[si]) >= r.ways {
		victim, evicted = r.sets[si][0], true
		r.sets[si] = r.sets[si][1:]
	}
	r.sets[si] = append(r.sets[si], refLine{blk: blk, dirty: write})
	return victim, evicted
}

func (r *refCache) invalidate(blk mem.BlockAddr) (present, dirty bool) {
	si, i := r.find(blk)
	if i < 0 {
		return false, false
	}
	present, dirty = true, r.sets[si][i].dirty
	r.sets[si] = append(r.sets[si][:i], r.sets[si][i+1:]...)
	return present, dirty
}

func (r *refCache) probe(blk mem.BlockAddr) (present, dirty bool) {
	si, i := r.find(blk)
	if i < 0 {
		return false, false
	}
	return true, r.sets[si][i].dirty
}

func (r *refCache) occupancy() int {
	n := 0
	for _, s := range r.sets {
		n += len(s)
	}
	return n
}

// FuzzCacheVsReference drives a small LRU cache (4 sets x 2 ways, 32
// competing blocks) and the reference model with the same op stream and
// requires identical hit/miss outcomes, victims, dirtiness and
// occupancy at every step.
func FuzzCacheVsReference(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x21, 0x02, 0x42, 0x03, 0x63, 0x04})
	f.Add([]byte("\x02\x01\x02\x09\x02\x11\x02\x19\x00\x01\x04\x09\x03\x01\x02\x01"))
	f.Add([]byte{0x01, 0x05, 0x02, 0x05, 0x04, 0x05, 0x03, 0x05, 0x02, 0x0d, 0x02, 0x15, 0x02, 0x1d, 0x00, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nsets, ways, nblocks = 4, 2, 32
		c := New(Config{Name: "F", SizeBytes: nsets * ways * mem.BlockSize, Ways: ways, Latency: 2})
		ref := newRefCache(nsets, ways)
		now := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			op := data[i] % 5
			blk := mem.BlockAddr(data[i+1] % nblocks)
			addr := blk.Addr()
			now++
			switch op {
			case 0, 1: // lookup read / write
				write := op == 1
				res := c.Lookup(blk, addr, 8, write, false, now)
				if want := ref.lookup(blk, write); res.Hit != want {
					t.Fatalf("op %d: Lookup(%d, write=%v) hit=%v, reference says %v", i, blk, write, res.Hit, want)
				}
				if res.Hit && res.ReadyAt < now+c.Latency() {
					t.Fatalf("op %d: hit ready at %d, before now+latency %d", i, res.ReadyAt, now+c.Latency())
				}
			case 2, 3: // fill clean / write-allocate
				write := op == 3
				v := c.Fill(blk, addr, 8, write, false, now)
				want, evicted := ref.fill(blk, write)
				if v.Valid != evicted {
					t.Fatalf("op %d: Fill(%d) evicted=%v, reference says %v", i, blk, v.Valid, evicted)
				}
				if evicted && (v.Blk != want.blk || v.Dirty != want.dirty) {
					t.Fatalf("op %d: Fill(%d) victim {%d dirty=%v}, reference says {%d dirty=%v}",
						i, blk, v.Blk, v.Dirty, want.blk, want.dirty)
				}
			case 4:
				p, d := c.Invalidate(blk)
				wp, wd := ref.invalidate(blk)
				if p != wp || d != wd {
					t.Fatalf("op %d: Invalidate(%d) = (%v,%v), reference says (%v,%v)", i, blk, p, d, wp, wd)
				}
			}
			if got, want := c.Occupancy(), ref.occupancy(); got != want {
				t.Fatalf("op %d: occupancy %d, reference says %d", i, got, want)
			}
		}
		// Final full-state comparison through the stat-free probes.
		for b := mem.BlockAddr(0); b < nblocks; b++ {
			p, d := c.ProbeDirty(b)
			wp, wd := ref.probe(b)
			if p != wp || d != wd {
				t.Fatalf("final state: block %d = (%v,%v), reference says (%v,%v)", b, p, d, wp, wd)
			}
		}
	})
}

// refMSHR is the register file as it was before the purge bound and the
// newest-first search: purge, find and Allocate are kept verbatim — an
// unconditional full scan, an oldest-first search, the earliest-ready
// victim with oldest-first ties — as the independent model FuzzMSHR
// compares MSHR against, entry for entry.
type refMSHR struct {
	cap     int
	entries []mshrEntry
}

func (m *refMSHR) find(blk mem.BlockAddr) int {
	for i := range m.entries {
		if m.entries[i].blk == blk {
			return i
		}
	}
	return -1
}

func (m *refMSHR) remove(i int) {
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
}

func (m *refMSHR) purge(now int64) {
	out := m.entries[:0]
	for _, e := range m.entries {
		if e.ready > now {
			out = append(out, e)
		}
	}
	m.entries = out
}

func (m *refMSHR) Outstanding(now int64) int {
	m.purge(now)
	return len(m.entries)
}

func (m *refMSHR) InFlight(now int64) int {
	n := 0
	for i := range m.entries {
		if m.entries[i].ready > now {
			n++
		}
	}
	return n
}

func (m *refMSHR) Lookup(blk mem.BlockAddr, now int64) (ready int64, inflight bool) {
	i := m.find(blk)
	if i < 0 {
		return 0, false
	}
	ready = m.entries[i].ready
	if ready <= now {
		m.remove(i)
		return 0, false
	}
	return ready, true
}

func (m *refMSHR) Allocate(blk mem.BlockAddr, now int64) int64 {
	m.purge(now)
	start := now
	for len(m.entries) >= m.cap {
		victim, earliest := 0, m.entries[0].ready
		for i := 1; i < len(m.entries); i++ {
			if m.entries[i].ready < earliest {
				earliest = m.entries[i].ready
				victim = i
			}
		}
		m.remove(victim)
		if earliest > start {
			start = earliest
		}
	}
	m.entries = append(m.entries, mshrEntry{blk: blk, ready: 1<<63 - 1})
	return start
}

func (m *refMSHR) Complete(blk mem.BlockAddr, ready int64) {
	if i := m.find(blk); i >= 0 {
		m.entries[i].ready = ready
		return
	}
	m.entries = append(m.entries, mshrEntry{blk: blk, ready: ready})
}

func (m *refMSHR) Abandon(blk mem.BlockAddr) {
	if i := m.find(blk); i >= 0 {
		m.remove(i)
	}
}

// missBegin and prefetchBegin are the raw register-file sequences every
// level of the hierarchy walk used to spell out, kept here as the
// reference for Cache.MissBegin and Cache.PrefetchBegin.
func (m *refMSHR) missBegin(blk mem.BlockAddr, t int64) (at int64, merged bool) {
	if ready, inflight := m.Lookup(blk, t); inflight {
		return ready, true
	}
	return m.Allocate(blk, t), false
}

func (m *refMSHR) prefetchBegin(blk mem.BlockAddr, now int64) bool {
	if _, inflight := m.Lookup(blk, now); inflight {
		return false
	}
	if m.Outstanding(now) >= m.cap {
		return false
	}
	m.Allocate(blk, now)
	return true
}

// FuzzMSHR drives a cache's MSHR file and refMSHR with the same op
// stream — through the raw register-file methods and through the three
// Cache methods the hierarchy walk calls (MissBegin, MissEnd,
// PrefetchBegin) — and requires identical return values and, after
// every op, an identical entry list in identical order — which pins
// insertion order, the oldest-first tie-break among equal fill times,
// and that the purge skip never keeps an entry a full scan would drop.
// For the Cache methods that covers the merge (its count and its
// after-t time), the stall when every register is busy and a
// prefetch's refusal when the block is in flight or no register is
// free; a cache without MSHRs must pass every call straight through.
// The stream stays inside the simulator's envelope (monotonic time,
// Allocate only after a Lookup that reported no outstanding miss,
// Complete on an absent block only while a register is free), under
// which a block never occupies two registers; that and the minReady
// bound are asserted too. Each op is two bytes: op | time step<<3,
// block | fill delay<<3; the coarse delays make fill-time ties common.
func FuzzMSHR(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x01, 0x45, 0x02, 0x13, 0x24})
	f.Add([]byte("\x01\x01\x01\x11\x01\x21\x01\x31\x02\x01\x03\x11"))
	// Three fills due at the same cycle, then a fourth miss: the oldest
	// of the tied entries is the victim.
	f.Add([]byte{0x00, 0x28, 0x00, 0x29, 0x00, 0x2a, 0x00, 0x0b, 0x04, 0x00, 0x00, 0x0c})
	// Fills reported for blocks not held, a round trip, a fill time
	// rewritten below the purge bound, then time jumps past every fill.
	f.Add([]byte{0x00, 0x10, 0x06, 0x19, 0x06, 0x1a, 0x07, 0x00, 0x06, 0x08, 0xfc, 0x00, 0xfd, 0x00, 0x00, 0x11})
	// A miss, a second access to the block one cycle on (merge), then a
	// raw miss and two more through MissBegin: the last one stalls.
	f.Add([]byte{0x00, 0x48, 0x08, 0x48, 0x05, 0x49, 0x00, 0x4a, 0x00, 0x4b})
	// Prefetch admission: admitted, refused in flight, admitted twice
	// more, refused with every register busy, admitted once fills land.
	f.Add([]byte{0x03, 0x20, 0x0b, 0x20, 0x03, 0x21, 0x03, 0x22, 0x03, 0x23, 0xfb, 0x23})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity, nblocks = 3, 8
		c := New(Config{Name: "F", SizeBytes: 2 * mem.BlockSize, Ways: 2, MSHRs: capacity})
		bare := New(Config{Name: "B", SizeBytes: 2 * mem.BlockSize, Ways: 2})
		m := c.MSHR()
		ref := &refMSHR{cap: capacity}
		now, merges := int64(0), int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			op := data[i] & 7
			now += int64(data[i] >> 3)
			blk := mem.BlockAddr(data[i+1] % nblocks)
			delay := 1 + 4*int64(data[i+1]>>3)
			switch op {
			case 0: // demand miss, as the walk issues it
				at, merged := c.MissBegin(blk, now)
				wantAt, wantMerged := ref.missBegin(blk, now)
				if at != wantAt || merged != wantMerged || at < now {
					t.Fatalf("op %d: MissBegin(%d, %d) = (%d,%v), raw sequence says (%d,%v)", i, blk, now, at, merged, wantAt, wantMerged)
				}
				if at, merged := bare.MissBegin(blk, now); at != now || merged {
					t.Fatalf("op %d: MSHR-less MissBegin(%d, %d) = (%d,%v), want pass-through", i, blk, now, at, merged)
				}
				if merged {
					merges++
					break
				}
				c.MissEnd(blk, at+delay)
				ref.Complete(blk, at+delay)
				bare.MissEnd(blk, at+delay)
			case 1, 5: // raw lookup; op 5 goes on to allocate and complete on a miss
				ready, inflight := m.Lookup(blk, now)
				wantReady, wantIn := ref.Lookup(blk, now)
				if inflight != wantIn || ready != wantReady {
					t.Fatalf("op %d: Lookup(%d, %d) = (%d,%v), reference says (%d,%v)", i, blk, now, ready, inflight, wantReady, wantIn)
				}
				if op == 1 || inflight {
					break
				}
				start, want := m.Allocate(blk, now), ref.Allocate(blk, now)
				if start != want {
					t.Fatalf("op %d: Allocate(%d, %d) = %d, reference says %d", i, blk, now, start, want)
				}
				m.Complete(blk, start+delay)
				ref.Complete(blk, start+delay)
			case 2:
				m.Abandon(blk)
				ref.Abandon(blk)
			case 3: // prefetch admission: never stalls, never doubles a block
				got, want := c.PrefetchBegin(blk, now), ref.prefetchBegin(blk, now)
				if got != want {
					t.Fatalf("op %d: PrefetchBegin(%d, %d) = %v, raw sequence says %v (entries %v)", i, blk, now, got, want, ref.entries)
				}
				if !bare.PrefetchBegin(blk, now) {
					t.Fatalf("op %d: MSHR-less PrefetchBegin refused", i)
				}
				if got {
					c.MissEnd(blk, now+delay)
					ref.Complete(blk, now+delay)
				}
			case 4:
				if got, want := m.Outstanding(now), ref.Outstanding(now); got != want {
					t.Fatalf("op %d: Outstanding(%d) = %d, reference says %d", i, now, got, want)
				}
			case 6: // a fill time rewritten, or reported for a block no longer held
				if ref.find(blk) < 0 && len(ref.entries) >= capacity {
					break
				}
				m.Complete(blk, now+delay)
				ref.Complete(blk, now+delay)
			case 7: // checkpoint round trip; the run continues on the restored file
				restored := NewMSHR(capacity)
				rest, err := restored.decodeState(m.encodeState(nil), "F")
				if err != nil || len(rest) != 0 {
					t.Fatalf("op %d: round trip: %d bytes left, err %v", i, len(rest), err)
				}
				c.mshr, m = restored, restored
			}
			if got, want := m.Pending(blk), ref.find(blk) >= 0; got != want {
				t.Fatalf("op %d: Pending(%d) = %v, reference says %v", i, blk, got, want)
			}
			if got, want := m.InFlight(now), ref.InFlight(now); got != want {
				t.Fatalf("op %d: InFlight(%d) = %d, reference says %d", i, now, got, want)
			}
			if c.Stats.MergedMSHR != merges || bare.Stats.MergedMSHR != 0 {
				t.Fatalf("op %d: %d merges counted (%d without MSHRs), want %d (0)", i, c.Stats.MergedMSHR, bare.Stats.MergedMSHR, merges)
			}
			if len(m.entries) > capacity {
				t.Fatalf("op %d: MSHR holds %d entries, capacity %d", i, len(m.entries), capacity)
			}
			if len(m.entries) != len(ref.entries) {
				t.Fatalf("op %d: entries %v, reference says %v", i, m.entries, ref.entries)
			}
			for j, e := range m.entries {
				if e != ref.entries[j] {
					t.Fatalf("op %d: entries %v, reference says %v", i, m.entries, ref.entries)
				}
				if e.ready < m.minReady {
					t.Fatalf("op %d: entry %v below the purge bound %d", i, e, m.minReady)
				}
				for _, o := range m.entries[:j] {
					if o.blk == e.blk {
						t.Fatalf("op %d: block %d occupies two registers: %v", i, e.blk, m.entries)
					}
				}
			}
		}
	})
}

// mshrPayload encodes entries the way encodeState does.
func mshrPayload(entries ...mshrEntry) []byte {
	return (&MSHR{entries: entries}).encodeState(nil)
}

// TestMSHRDecodeRejectsDuplicateBlock: a checkpoint comes from disk, and
// one that names a block twice would break the uniqueness the
// newest-first search relies on. It must be refused, leaving the file
// empty rather than half restored.
func TestMSHRDecodeRejectsDuplicateBlock(t *testing.T) {
	m := NewMSHR(4)
	if _, err := m.decodeState(mshrPayload(mshrEntry{7, 100}, mshrEntry{9, 120}, mshrEntry{7, 140}), "T"); err == nil {
		t.Fatal("payload naming block 7 twice was accepted")
	}
	if m.Len() != 0 {
		t.Fatalf("rejected payload left %d entries behind", m.Len())
	}
	// The same blocks once each restore, and the first purge after a
	// restore scans rather than trusting a bound it has not computed.
	if _, err := m.decodeState(mshrPayload(mshrEntry{7, 100}, mshrEntry{9, 120}), "T"); err != nil {
		t.Fatal(err)
	}
	if got := m.Outstanding(110); got != 1 {
		t.Fatalf("Outstanding(110) after restore = %d, want 1", got)
	}
}

// FuzzMSHRDecodeState feeds decodeState arbitrary bytes: it must not
// panic, and whatever it accepts must fit the file, name no block twice
// and re-encode to exactly the bytes it consumed.
func FuzzMSHRDecodeState(f *testing.F) {
	f.Add(mshrPayload())
	f.Add(mshrPayload(mshrEntry{1, 10}, mshrEntry{2, 1<<63 - 1}))
	f.Add(mshrPayload(mshrEntry{7, 100}, mshrEntry{9, 120}, mshrEntry{7, 140}))                             // duplicate block
	f.Add(mshrPayload(mshrEntry{1, 1}, mshrEntry{2, 2}, mshrEntry{3, 3}, mshrEntry{4, 4}, mshrEntry{5, 5})) // over capacity
	f.Add(mshrPayload(mshrEntry{1, 10}, mshrEntry{2, 20})[:20])                                             // truncated
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMSHR(4)
		rest, err := m.decodeState(data, "F")
		if err != nil {
			return
		}
		if m.Len() > m.Capacity() {
			t.Fatalf("accepted %d entries into %d registers", m.Len(), m.Capacity())
		}
		for j, e := range m.entries {
			for _, o := range m.entries[:j] {
				if o.blk == e.blk {
					t.Fatalf("accepted block %d twice: %v", e.blk, m.entries)
				}
			}
		}
		if consumed := data[:len(data)-len(rest)]; string(m.encodeState(nil)) != string(consumed) {
			t.Fatalf("re-encoded %x, consumed %x", m.encodeState(nil), consumed)
		}
	})
}
