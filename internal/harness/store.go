package harness

import (
	"fmt"

	"graphmem/internal/sim"
	"graphmem/internal/store"
)

// This file is the workbench's disk tier: the content-addressed result
// store slots under the in-memory memo (lookup order: memory memo →
// disk store → live run, walked by through in harness.go). A published
// entry is read on the caller without a lock (Store.Peek); a miss goes
// to the workbench's single-flight memo fill, the one in-process
// single-flight, under which the store's claim file serializes the
// producers of other workbenches and processes. Stored results are
// byte-identical to live ones — the determinism contract pinned by
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

// StoreSummary renders the one-line store outcome the CLI tools print
// to stderr after a sweep (and CI's warm-store job parses).
func StoreSummary(s *store.Store) string {
	entries, bytes, _ := s.Size()
	return fmt.Sprintf("store %s: hits=%d misses=%d evictions=%d entries=%d bytes=%d",
		s.Dir(), s.Hits(), s.Misses(), s.Evictions(), entries, bytes)
}
