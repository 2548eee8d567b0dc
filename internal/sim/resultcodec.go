// Result serialization for the disk-backed result store: a Result or
// MultiResult travels as internal/store's binary payload codec
// (store.Marshal) inside the store's framed files. The codec carries
// every exported field bit for bit — integers exactly, float64s as
// their IEEE bytes, nil and empty slices apart — so a decoded result
// renders byte-identically to the live run it caches (the determinism
// contract the harness tests pin). Its layout fingerprint makes a
// payload of another type or of an older Result layout an ordinary
// miss, which the harness heals by rerunning and republishing.
package sim

import (
	"fmt"

	"graphmem/internal/store"
)

// StateVersion identifies the simulator behaviour the result store
// caches. Bump it whenever any change alters simulated counters or what
// a stored result means — timing model fixes, replacement-policy
// changes, graph generator tweaks — and every previously stored entry
// becomes unreadable (ErrVersionMismatch) instead of silently stale. A
// change to the layout of a stored result is also caught by the payload
// codec's fingerprint, which makes the old entry a miss; a change of
// behaviour is not, and still needs the bump. It also enters every run
// key, so a bump re-addresses them as well.
const StateVersion = 1

// resultMagic opens every file of the result store.
var resultMagic = [8]byte{'G', 'M', 'R', 'E', 'S', 'L', 'T', '\n'}

// ResultFraming returns the framing (magic + StateVersion) binding
// every stored file to this simulator version.
func ResultFraming() store.Framing {
	return store.Framing{Magic: resultMagic, Version: StateVersion}
}

// EncodeResult serializes a Result for the store.
func EncodeResult(r *Result) ([]byte, error) { return encodeStored(r) }

// DecodeResult deserializes a stored Result payload. A payload of any
// other type — a MultiResult, a Fig. 3 profile — fails.
func DecodeResult(data []byte) (*Result, error) { return decodeStored[Result](data) }

// EncodeMultiResult serializes a multi-core run's MultiResult for the
// store: the same codec under the same framing and StateVersion as a
// Result.
func EncodeMultiResult(r *MultiResult) ([]byte, error) { return encodeStored(r) }

// DecodeMultiResult deserializes a stored MultiResult payload.
func DecodeMultiResult(data []byte) (*MultiResult, error) { return decodeStored[MultiResult](data) }

func encodeStored(r any) ([]byte, error) {
	data, err := store.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("sim: encode result: %w", err)
	}
	return data, nil
}

func decodeStored[R any](data []byte) (*R, error) {
	r := new(R)
	if err := store.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("sim: decode result: %w", err)
	}
	return r, nil
}
