package sample

import "graphmem/internal/store"

// StateVersion identifies the µarch-state checkpoint payload layout
// produced by internal/sim. It is the file header's version, so a
// simulator whose state format changed never deserializes a stale file:
// the store reads it as a miss and the re-warm overwrites it.
const StateVersion = 1

// ckptFraming is the checkpoint file identity: the framing (magic +
// version + length + sha256) is the shared internal/store
// implementation, bound to this package's magic and StateVersion.
var ckptFraming = store.Framing{
	Magic:   [8]byte{'G', 'M', 'W', 'C', 'K', 'P', 'T', '\n'},
	Version: StateVersion,
}

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
