package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var testFraming = Framing{
	Magic:   [8]byte{'G', 'M', 'T', 'E', 'S', 'T', '!', '\n'},
	Version: 3,
}

func TestFramingRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1<<16)} {
		framed := testFraming.Encode(payload)
		got, err := testFraming.Decode(framed)
		if err != nil {
			t.Fatalf("Decode(%d-byte payload): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d-byte payload: got %d bytes", len(payload), len(got))
		}
	}
}

func TestFramingRejectsDamage(t *testing.T) {
	framed := testFraming.Encode([]byte("the payload"))

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"short header", framed[:headerLen-1], ErrCorrupt},
		{"truncated payload", framed[:len(framed)-3], ErrCorrupt},
		{"wrong magic", append([]byte{'X'}, framed[1:]...), ErrCorrupt},
		{"flipped payload bit", flipBit(framed, headerLen+2), ErrCorrupt},
		{"flipped checksum bit", flipBit(framed, 20), ErrCorrupt},
		{"trailing junk", append(append([]byte(nil), framed...), 0xAB), ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := testFraming.Decode(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	stale := Framing{Magic: testFraming.Magic, Version: testFraming.Version + 1}.Encode([]byte("the payload"))
	if _, err := testFraming.Decode(stale); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("stale version: got %v, want ErrVersionMismatch", err)
	}
}

func flipBit(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 1
	return out
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(dir, path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(dir, path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("got %q, want %q", got, "second")
	}
	// No abandoned temp files after successful publishes.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want just the published file", len(ents))
	}
}
