// The µarch-state codec behind the sampling engine's warm-up
// checkpoints (internal/sim/checkpoint.go): a cache's complete
// replaceable state in, the same state out.

package cache

import (
	"encoding/binary"
	"fmt"

	"graphmem/internal/mem"
)

// lineBytes is the serialized size of one Line: block address, packed
// flags, fill time, used-word mask, RRPV, checker version, LRU stamp.
const lineBytes = 8 + 1 + 8 + 2 + 1 + 8 + 8

// EncodeState appends the cache's complete replaceable state — the LRU
// clock and every line's fields, including ones that are provably zero
// after a pure functional warm-up (ReadyAt, Prefetched) — to buf.
// Serializing everything rather than the warm-reachable subset is what
// makes the checkpoint round-trip byte-identical by construction
// instead of by argument.
func (c *Cache) EncodeState(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.lines)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.lruClock))
	for i := range c.lines {
		ln := &c.lines[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ln.Blk))
		var flags byte
		if ln.Valid {
			flags |= 1
		}
		if ln.Dirty {
			flags |= 2
		}
		if ln.Prefetched {
			flags |= 4
		}
		if ln.WOC {
			flags |= 8
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ln.ReadyAt))
		buf = binary.LittleEndian.AppendUint16(buf, ln.Used)
		buf = append(buf, ln.RRPV)
		buf = binary.LittleEndian.AppendUint64(buf, ln.Ver)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ln.lru))
	}
	if c.mshr != nil {
		buf = c.mshr.encodeState(buf)
	}
	return buf
}

// DecodeState restores state written by EncodeState, rejecting a
// geometry mismatch, and returns the remaining bytes.
func (c *Cache) DecodeState(data []byte) ([]byte, error) {
	if len(data) < 4+8 {
		return nil, fmt.Errorf("cache %s: checkpoint truncated", c.cfg.Name)
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n != len(c.lines) {
		return nil, fmt.Errorf("cache %s: checkpoint geometry mismatch: %d lines, have %d", c.cfg.Name, n, len(c.lines))
	}
	c.lruClock = int64(binary.LittleEndian.Uint64(data[4:]))
	data = data[12:]
	if len(data) < n*lineBytes {
		return nil, fmt.Errorf("cache %s: checkpoint truncated", c.cfg.Name)
	}
	for i := range c.lines {
		ln := &c.lines[i]
		ln.Blk = mem.BlockAddr(binary.LittleEndian.Uint64(data))
		flags := data[8]
		ln.Valid = flags&1 != 0
		ln.Dirty = flags&2 != 0
		ln.Prefetched = flags&4 != 0
		ln.WOC = flags&8 != 0
		ln.ReadyAt = int64(binary.LittleEndian.Uint64(data[9:]))
		ln.Used = binary.LittleEndian.Uint16(data[17:])
		ln.RRPV = data[19]
		ln.Ver = binary.LittleEndian.Uint64(data[20:])
		ln.lru = int64(binary.LittleEndian.Uint64(data[28:]))
		data = data[lineBytes:]
	}
	if c.mshr != nil {
		return c.mshr.decodeState(data, c.cfg.Name)
	}
	return data, nil
}
