// Package store provides the repository's on-disk persistence
// primitives: a versioned, checksummed file framing (magic + version +
// length + sha256 + payload), the binary payload codec stored values
// travel in (Marshal/Unmarshal), and a lock-free content-addressed blob
// store with best-effort claim files (its one serializer across store
// handles and processes), atomic publication, and LRU size capping.
//
// The repository uses one store: the simulation result store, framed
// with sim.ResultFraming. It holds run results only (the Fig. 3 profile
// among them), so sim.StateVersion versions every file on disk.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Errors surfaced by framed-payload decoding. Version mismatches and
// corrupt/truncated files are ordinary cache misses to callers (the
// cached computation is simply redone), but they are distinguishable
// for tests and diagnostics.
var (
	ErrVersionMismatch = errors.New("store: framed payload version mismatch")
	ErrCorrupt         = errors.New("store: framed payload truncated or corrupt")
)

// Framing binds a client's file identity: the magic that opens every
// file and the payload-layout version. Bumping the version orphans
// every previously written file — Decode rejects them with
// ErrVersionMismatch — which is how stores invalidate incrementally
// when the payload producer changes behaviour.
type Framing struct {
	Magic   [8]byte
	Version uint32
}

// headerLen is the framed prefix: magic, version, payload length,
// payload sha256.
const headerLen = 8 + 4 + 8 + 32

// Encode frames a payload: magic, version, payload length, payload
// checksum, payload. The checksum makes truncation and bit-rot
// detectable without trusting the payload's internal structure.
func (f Framing) Encode(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+headerLen)
	out = append(out, f.Magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, f.Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out
}

// Decode validates a framed file and returns its payload.
func (f Framing) Decode(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, ErrCorrupt
	}
	if [8]byte(data[:8]) != f.Magic {
		return nil, ErrCorrupt
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != f.Version {
		return nil, fmt.Errorf("%w: file v%d, want v%d", ErrVersionMismatch, v, f.Version)
	}
	n := binary.LittleEndian.Uint64(data[12:20])
	payload := data[headerLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), n)
	}
	var sum [32]byte
	copy(sum[:], data[20:52])
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// WriteFileAtomic publishes what write writes at path, readable by all
// (0644), via a temporary file in dir (path's name, .tmp, digits) and a
// rename: a crashed or interrupted writer can never leave a
// half-written file that a later reader would trust, and of several
// writers of one path, one rename wins. dir must be on the same
// filesystem as path (use the file's own directory).
func WriteFileAtomic(dir, path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: atomic write: %w", err)
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: atomic write: %w", err)
	}
	return nil
}
