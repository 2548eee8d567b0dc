// Result serialization for the disk-backed result store: a Result or
// MultiResult travels as canonical JSON inside internal/store's framed
// files. JSON round-trips every field of either exactly — all fields
// are exported int64/float64/bool/string compositions, and
// encoding/json preserves float64 bit patterns through its
// shortest-representation formatting — so a decoded result renders
// byte-identically to the live run it caches (the determinism contract
// the harness tests pin).
package sim

import (
	"encoding/json"
	"fmt"

	"graphmem/internal/store"
)

// StateVersion identifies the simulator behaviour the result store
// caches. Bump it whenever any change alters simulated counters or the
// Result layout — timing model fixes, replacement-policy changes, graph
// generator tweaks, new Result fields — and every previously stored
// entry becomes unreadable (ErrVersionMismatch) instead of silently
// stale. It is deliberately distinct from sample.StateVersion, which
// versions the warm-up checkpoint payload only.
const StateVersion = 1

// resultMagic opens every stored result file; distinct from the
// checkpoint magic so the two stores can never deserialize each other's
// files even if keys collide.
var resultMagic = [8]byte{'G', 'M', 'R', 'E', 'S', 'L', 'T', '\n'}

// ResultFraming returns the framing (magic + StateVersion) binding
// stored result files to this simulator version.
func ResultFraming() store.Framing {
	return store.Framing{Magic: resultMagic, Version: StateVersion}
}

// EncodeResult serializes a Result for the store.
func EncodeResult(r *Result) ([]byte, error) { return encodeStored(r) }

// DecodeResult deserializes a stored Result payload.
func DecodeResult(data []byte) (*Result, error) { return decodeStored[Result](data) }

// EncodeMultiResult serializes a multi-core run's MultiResult for the
// store: the same canonical JSON under the same framing and
// StateVersion as a Result.
func EncodeMultiResult(r *MultiResult) ([]byte, error) { return encodeStored(r) }

// DecodeMultiResult deserializes a stored MultiResult payload.
func DecodeMultiResult(data []byte) (*MultiResult, error) { return decodeStored[MultiResult](data) }

func encodeStored(r any) ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("sim: encode result: %w", err)
	}
	return data, nil
}

func decodeStored[R any](data []byte) (*R, error) {
	r := new(R)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("sim: decode result: %w", err)
	}
	return r, nil
}
