//go:build !linux

package store

import (
	"io"
	"os"
	"time"
)

// readEntry reads a published entry whole and returns its bytes and
// mtime through one open file.
func readEntry(path string) ([]byte, time.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, time.Time{}, err
	}
	return data, fi.ModTime(), nil
}
