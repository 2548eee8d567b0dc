package sample

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"graphmem/internal/store"
)

// StateVersion identifies the µarch-state checkpoint payload layout
// produced by internal/sim. It participates in both the file header and
// the checkpoint key, so a simulator whose state format changed never
// deserializes (or even looks up) a stale file.
const StateVersion = 1

// ckptFraming is the checkpoint file identity: the framing (magic +
// version + length + sha256) is the shared internal/store
// implementation, bound to this package's magic and StateVersion.
var ckptFraming = store.Framing{
	Magic:   [8]byte{'G', 'M', 'W', 'C', 'K', 'P', 'T', '\n'},
	Version: StateVersion,
}

// Errors surfaced by checkpoint decoding, aliased to the shared framing
// errors so errors.Is works across both packages. Version mismatches
// and corrupt/truncated files are ordinary cache misses to callers (the
// warm-up is simply replayed), but they are distinguishable for tests
// and diagnostics.
var (
	ErrVersionMismatch = store.ErrVersionMismatch
	ErrCorrupt         = store.ErrCorrupt
)

// Key derives a checkpoint-store key from the three identity components
// the ISSUE pins down: the workload hash, the warm-up-relevant config
// hash, and the simulator state version. Callers hash whatever uniquely
// identifies each component; Key just binds them.
func Key(workloadHash, warmConfigHash string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s|%s", StateVersion, workloadHash, warmConfigHash)))
	return hex.EncodeToString(h[:16])
}

// Encode frames a checkpoint payload: magic, state version, payload
// length, payload checksum, payload. The checksum makes truncation and
// bit-rot detectable without trusting the payload's internal structure.
func Encode(payload []byte) []byte { return ckptFraming.Encode(payload) }

// Decode validates a framed checkpoint and returns its payload.
func Decode(data []byte) ([]byte, error) { return ckptFraming.Decode(data) }

// Store is the disk-backed checkpoint store: an internal/store instance
// bound to the checkpoint framing. Its per-key single-flight is what
// makes a sweep of N configs sharing a warm-up perform exactly one (the
// first Acquire for a key misses and warms; the others block on the key
// lock and then hit the committed file), its cross-process claim does
// the same between concurrent tools sharing a directory, and its hit/
// miss counters feed the CI job summary and the scheduler tests. A stale
// (wrong-version) or corrupt file is a miss, overwritten by the commit.
type Store = store.Store

// NewStore opens (creating if needed) a checkpoint store rooted at dir.
func NewStore(dir string) (*Store, error) { return store.Open(dir, ckptFraming) }
