// Warm-up checkpointing for the statistical sampling engine: the
// machine state functional warming builds — cache/TLB/LP/SDCDir tags
// and recency, MSHR occupancy (always empty after a warm-up), DRAM open
// rows, and the four architectural CPU counters — serializes into one
// payload that internal/sample's store wraps in a versioned, checksummed
// file. A sweep of N configs sharing a workload and warm-relevant
// configuration then replays one warm-up instead of N: the other N-1
// runs drain the record stream (counting instructions only) to the
// recorded position and decode the captured state, which is
// byte-identical to having warmed in place.
package sim

import (
	"encoding/binary"
	"fmt"
)

// stateful is a component whose warm state the checkpoint carries.
type stateful interface {
	EncodeState([]byte) []byte
	DecodeState([]byte) ([]byte, error)
}

// warmComponents lists, in payload order, core 0's warm state plus the
// shared LLC, SDC directory and DRAM row state. The CPU counters come
// first: the payload's leading uint64 is the instruction position the
// drain on a checkpoint hit runs to, read back without decoding the
// rest. The order is the payload format (TestWarmStateFingerprint).
func (s *System) warmComponents() []stateful {
	c := s.cores[0]
	list := []stateful{c.cpuCore}
	for _, l := range c.levels {
		list = append(list, l.cache)
	}
	list = append(list, c.tlbs)
	if c.lp != nil {
		list = append(list, c.lp)
	}
	list = append(list, s.llc)
	if s.sdcDir != nil {
		list = append(list, s.sdcDir)
	}
	return append(list, s.dram)
}

// encodeWarmState serializes every warm component into one payload.
func (s *System) encodeWarmState() []byte {
	buf := make([]byte, 0, 1<<16)
	for _, comp := range s.warmComponents() {
		buf = comp.EncodeState(buf)
	}
	return buf
}

// decodeWarmState restores the state encodeWarmState captured. The
// structure set and geometries must match the encoder's — the store key
// covers every field that shapes the payload, so a mismatch here means
// a key collision or a corrupted store entry.
func (s *System) decodeWarmState(data []byte) error {
	var err error
	for _, comp := range s.warmComponents() {
		if data, err = comp.DecodeState(data); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("sim: checkpoint payload has %d trailing bytes", len(data))
	}
	return nil
}

// startDrain takes a checkpoint hit: the run skips its warm-up by
// draining the record stream (counting only, touching nothing) to the
// recorded position, then restores the captured state. The payload leads
// with the CPU instruction counter, which is that position.
func (c *coreCtx) startDrain(payload []byte) {
	c.warmMode = warmDrain
	c.drainTo = int64(binary.LittleEndian.Uint64(payload))
	c.ckptPayload = payload
	c.ckptHit = true
	c.sys.warming = false
}

// resumeFromCheckpoint ends the drain: the record stream now sits
// exactly where the captured warm-up ended, so restoring the payload
// reproduces the uninterrupted run's state byte for byte. The window
// then opens the same way a fresh warm-up's would.
func (c *coreCtx) resumeFromCheckpoint() {
	if err := c.sys.decodeWarmState(c.ckptPayload); err != nil {
		// The store verified the file checksum, so reaching here means a
		// key collision: a payload captured under a different machine
		// shape. Config.WarmKey is wrong, not the data.
		panic(fmt.Sprintf("sim: checkpoint state mismatch: %v", err))
	}
	c.ckptPayload = nil
	c.enterWarm()
	c.beginMeasureSampled()
	c.rearm()
}
