// Warm-up checkpointing for the statistical sampling engine: the
// machine state functional warming builds — cache/TLB/LP/SDCDir tags
// and recency, MSHR occupancy (always empty after a warm-up), DRAM open
// rows, and the four architectural CPU counters — is collected into one
// warmState, marshalled by the store's codec (store.Marshal) and kept as
// one more entry of the result store under Config.WarmKey, framed like a
// result (ResultFraming, so StateVersion versions it). A sweep of N
// configs sharing a workload and warm-relevant configuration then
// replays one warm-up instead of N: the other N-1 runs decode the entry,
// drain the record stream (counting instructions only) to the recorded
// position and restore the captured state, which is identical to having
// warmed in place. An entry that does not decode is a miss (RunCore0).
package sim

import (
	"errors"
	"fmt"

	"graphmem/internal/cache"
	"graphmem/internal/coherence"
	corepkg "graphmem/internal/core"
	"graphmem/internal/cpu"
	"graphmem/internal/store"
	"graphmem/internal/tlb"
)

// warmState is a warm-up checkpoint: core 0's warm state plus the
// shared LLC, SDC directory and DRAM row state, each as its component
// states it. Its layout is the payload format: the codec's fingerprint
// covers it and TestWarmStateFingerprint pins its bytes. Every field,
// recursively, must be exported — the codec skips unexported ones
// (TestWarmStateFieldsExported).
type warmState struct {
	// CPU leads: its instruction count is the position a checkpoint
	// hit's drain runs to.
	CPU cpu.Retired
	// Levels are core 0's private caches in coreCtx.levels order.
	Levels     []cache.State
	DTLB, STLB tlb.State
	LP         *corepkg.LPState // nil without a Large Predictor
	LLC        cache.State
	SDCDir     *coherence.DirState // nil without SDCs
	OpenRows   []int64
}

// encodeWarmState is the payload a warm-up publishes: the machine's
// warm state, marshalled before the run moves on (the component states
// share their slabs).
func (s *System) encodeWarmState() []byte {
	c := s.cores[0]
	st := warmState{
		CPU:      c.cpuCore.State(),
		DTLB:     c.tlbs.DTLB.State(),
		STLB:     c.tlbs.STLB.State(),
		LLC:      s.llc.State(),
		OpenRows: s.dram.OpenRows(),
	}
	for _, l := range c.levels {
		st.Levels = append(st.Levels, l.cache.State())
	}
	if c.lp != nil {
		lp := c.lp.State()
		st.LP = &lp
	}
	if s.sdcDir != nil {
		dir := s.sdcDir.State()
		st.SDCDir = &dir
	}
	payload, err := store.Marshal(&st)
	if err != nil {
		panic(err) // the codec refuses only types warmState does not use
	}
	return payload
}

// restoreWarmState puts a decoded warm state back. The store key covers
// every field that shapes the machine, so an error here — a structure
// missing or of another geometry — means a key collision.
func (s *System) restoreWarmState(st *warmState) error {
	c := s.cores[0]
	if len(st.Levels) != len(c.levels) || (st.LP == nil) != (c.lp == nil) || (st.SDCDir == nil) != (s.sdcDir == nil) {
		return errors.New("sim: warm state of another machine shape")
	}
	c.cpuCore.Restore(st.CPU)
	errs := []error{
		c.tlbs.DTLB.Restore(st.DTLB),
		c.tlbs.STLB.Restore(st.STLB),
		s.llc.Restore(st.LLC),
		s.dram.RestoreOpenRows(st.OpenRows),
	}
	for i, l := range c.levels {
		errs = append(errs, l.cache.Restore(st.Levels[i]))
	}
	if c.lp != nil {
		errs = append(errs, c.lp.Restore(*st.LP))
	}
	if s.sdcDir != nil {
		errs = append(errs, s.sdcDir.Restore(*st.SDCDir))
	}
	return errors.Join(errs...)
}

// startDrain takes a checkpoint hit: it decodes the payload and, when
// that succeeds, the run skips its warm-up by draining the record
// stream (counting only, touching nothing) to the recorded position,
// then restores the captured state. A payload that does not decode
// (store.ErrLayout, store.ErrCorrupt) leaves the run warming in place.
func (c *coreCtx) startDrain(payload []byte) error {
	st := new(warmState)
	if err := store.Unmarshal(payload, st); err != nil {
		return err
	}
	c.warmMode = warmDrain
	c.drainTo = st.CPU.Instructions
	c.ckptState = st
	c.ckptHit = true
	c.sys.warming = false
	return nil
}

// resumeFromCheckpoint ends the drain: the record stream now sits
// exactly where the captured warm-up ended, so restoring the state
// reproduces the uninterrupted run's state exactly. The window then
// opens the same way a fresh warm-up's would.
func (c *coreCtx) resumeFromCheckpoint() {
	if err := c.sys.restoreWarmState(c.ckptState); err != nil {
		// The payload decoded, so it is a warm state — of a different
		// machine shape. Config.WarmKey is wrong, not the data.
		panic(fmt.Sprintf("sim: checkpoint state mismatch: %v", err))
	}
	c.ckptState = nil
	c.enterWarm()
	c.beginMeasureSampled()
	c.rearm()
}
