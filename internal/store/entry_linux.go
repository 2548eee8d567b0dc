package store

import (
	"io"
	"syscall"
	"time"
)

// readEntry reads a published entry whole and returns its bytes and
// mtime, in four system calls: open, fstat, read, close. os.ReadFile
// takes about ten for the same file, because os.Open also tries to
// register a regular file with the runtime poller.
func readEntry(path string) ([]byte, time.Time, error) {
	var fd int
	err := retryEINTR(func() (err error) {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		return err
	})
	if err != nil {
		return nil, time.Time{}, err
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := retryEINTR(func() error { return syscall.Fstat(fd, &st) }); err != nil {
		return nil, time.Time{}, err
	}
	data := make([]byte, st.Size)
	for off := 0; off < len(data); {
		var n int
		err := retryEINTR(func() (err error) {
			n, err = syscall.Read(fd, data[off:])
			return err
		})
		if err != nil {
			return nil, time.Time{}, err
		}
		if n == 0 {
			return nil, time.Time{}, io.ErrUnexpectedEOF
		}
		off += n
	}
	return data, time.Unix(st.Mtim.Unix()), nil
}

// retryEINTR calls f until it fails with something other than EINTR, as
// package os does around its own system calls.
func retryEINTR(f func() error) error {
	for {
		if err := f(); err != syscall.EINTR {
			return err
		}
	}
}
