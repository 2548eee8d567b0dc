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

	"graphmem/internal/sample"
)

// encodeWarmState serializes core 0's warm state plus the shared LLC,
// SDC directory and DRAM row state. The CPU counters come first: the
// leading uint64 is the instruction position the drain on a checkpoint
// hit runs to, read back without decoding the rest.
func (s *System) encodeWarmState() []byte {
	c := s.cores[0]
	buf := make([]byte, 0, 1<<16)
	buf = c.cpuCore.EncodeState(buf)
	buf = c.l1d.EncodeState(buf)
	if c.victim != nil {
		buf = c.victim.EncodeState(buf)
	}
	buf = c.l2.EncodeState(buf)
	if c.sdc != nil {
		buf = c.sdc.EncodeState(buf)
	}
	buf = c.tlbs.EncodeState(buf)
	if c.lp != nil {
		buf = c.lp.EncodeState(buf)
	}
	buf = s.llc.EncodeState(buf)
	if s.sdcDir != nil {
		buf = s.sdcDir.EncodeState(buf)
	}
	buf = s.dram.EncodeState(buf)
	return buf
}

// decodeWarmState restores the state encodeWarmState captured. The
// structure set and geometries must match the encoder's — the store key
// covers every field that shapes the payload, so a mismatch here means
// a key collision or a corrupted store entry.
func (s *System) decodeWarmState(data []byte) error {
	c := s.cores[0]
	var err error
	if data, err = c.cpuCore.DecodeState(data); err != nil {
		return err
	}
	if data, err = c.l1d.DecodeState(data); err != nil {
		return err
	}
	if c.victim != nil {
		if data, err = c.victim.DecodeState(data); err != nil {
			return err
		}
	}
	if data, err = c.l2.DecodeState(data); err != nil {
		return err
	}
	if c.sdc != nil {
		if data, err = c.sdc.DecodeState(data); err != nil {
			return err
		}
	}
	if data, err = c.tlbs.DecodeState(data); err != nil {
		return err
	}
	if c.lp != nil {
		if data, err = c.lp.DecodeState(data); err != nil {
			return err
		}
	}
	if data, err = s.llc.DecodeState(data); err != nil {
		return err
	}
	if s.sdcDir != nil {
		if data, err = s.sdcDir.DecodeState(data); err != nil {
			return err
		}
	}
	if data, err = s.dram.DecodeState(data); err != nil {
		return err
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
		// shape. warmKey is wrong, not the data.
		panic(fmt.Sprintf("sim: checkpoint state mismatch: %v", err))
	}
	c.ckptPayload = nil
	c.enterWarm()
	c.beginMeasureSampled()
	c.rearm()
}

// warmKey derives the checkpoint-store key for this config + workload.
// Only warm-relevant configuration enters the hash: structure
// geometries, replacement and routing selections, the warm-up length,
// and the fault hook — everything that shapes the warm state or the
// payload layout. Latencies, MSHR capacities, measurement and sampling
// schedules, and the config's display name deliberately do not, so a
// sweep varying only those shares one warm-up.
func warmKey(cfg Config, workload string) string {
	conf := fmt.Sprintf(
		"cores%d|route%d|l1d%d/%d,m%v|vc%d|l2%d/%d,m%v,dist%v/%d|llc%d/%d,m%v,topt%v,rrip%v,popt%v|sdc%d/%d,m%v|lp%d/%d/%d,ad%v|dir%d/%d|dram%+v,ch%d|pf%v|warm%d|mis%v",
		cfg.Cores, cfg.Routing,
		cfg.L1D.SizeBytes, cfg.L1D.Ways, cfg.L1D.MSHRs > 0,
		cfg.VictimEntries,
		cfg.L2.SizeBytes, cfg.L2.Ways, cfg.L2.MSHRs > 0, cfg.L2Distill, cfg.L2DistillWays,
		cfg.LLCPerCoreBytes, cfg.LLCWays, cfg.LLCMSHRs > 0, cfg.LLCTOPT, cfg.LLCRRIP, cfg.LLCPOPT,
		cfg.SDC.SizeBytes, cfg.SDC.Ways, cfg.SDC.MSHRs > 0,
		cfg.LP.Entries, cfg.LP.Ways, cfg.LP.Tau, cfg.LPAdaptive,
		cfg.SDCDirEntriesPerCore, cfg.SDCDirWays,
		cfg.DRAM, cfg.DRAMChannels,
		cfg.Prefetchers == "none", cfg.Warmup, cfg.Sampling.MisWarm,
	)
	// The prefetcher preset shapes the warm state (which prefetchers
	// filled what); it extends the key only when non-default so every
	// existing checkpoint address survives. BranchMissPenalty is
	// timing-only and deliberately absent: all penalty sweeps share one
	// warm-up.
	if cfg.Prefetchers != "" {
		conf += "|pfset" + cfg.Prefetchers
	}
	return sample.Key(workload, conf)
}
