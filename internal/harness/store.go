package harness

import (
	"encoding/json"
	"fmt"

	"graphmem/internal/sim"
	"graphmem/internal/store"
)

// This file is the workbench's disk tier: the content-addressed result
// store slots under the in-memory memo (lookup order: memory memo →
// disk store → live run) with the store's own single-flight and claim
// discipline layered below the workbench's single-flight memo. Stored results
// are byte-identical to live ones — the determinism contract pinned by
// TestStoreReportsByteIdentical — so the tier affects wall-clock only.

// OpenResultStore opens (creating if needed) a result store rooted at
// dir, framed with the simulator's magic and StateVersion. Assign the
// returned store to Workbench.Store (and gmserved's server) before the
// first run; cmd/gmreport and cmd/gmsim expose it as -store.
func OpenResultStore(dir string) (*store.Store, error) {
	return store.Open(dir, sim.ResultFraming())
}

// storeEligible reports whether the configured run may be served from
// (and written to) the disk store; sim.Config.Cacheable holds the rule.
func (wb *Workbench) storeEligible(cfg sim.Config) bool {
	return wb.Store != nil && cfg.Cacheable() == nil
}

// decodeStored validates a store payload against the run it claims to
// cache. A nil return means the payload is unusable (undecodable or a
// key collision) and the caller must Reject it and run live — the store
// can never poison a sweep.
func decodeStored(payload []byte, cfg sim.Config, id WorkloadID) *sim.Result {
	res, err := sim.DecodeResult(payload)
	if err != nil {
		return nil
	}
	if res.Config != cfg.Name || res.Workload != id.String() {
		return nil
	}
	return res
}

// StoreSummary renders the one-line store outcome the CLI tools print
// to stderr after a sweep (and CI's warm-store job parses).
func StoreSummary(s *store.Store) string {
	entries, bytes, _ := s.Size()
	return fmt.Sprintf("store %s: hits=%d misses=%d evictions=%d entries=%d bytes=%d",
		s.Dir(), s.Hits(), s.Misses(), s.Evictions(), entries, bytes)
}

// storedFig3 decodes and validates a cached Fig. 3 profile.
func storedFig3(payload []byte, id WorkloadID) *Fig3Result {
	res := new(Fig3Result)
	if err := json.Unmarshal(payload, res); err != nil {
		return nil
	}
	if res.Workload != id || len(res.Labels) == 0 {
		return nil
	}
	return res
}
