//go:build unix && !mmap_unsupported

package csrfile

import (
	"os"
	"syscall"
)

// mmapSupported gates tests and callers that rely on the O(n)-heap builder
// and the zero-copy loader, both of which need a real file mapping.
const mmapSupported = true

// mapRO maps size bytes of f read-only. The returned release func must be
// called exactly once when the caller is done with the bytes; after it
// returns the slice is invalid.
func mapRO(f *os.File, size int64) (data []byte, release func([]byte) error, err error) {
	if size == 0 {
		return nil, releaseNothing, nil
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	return b, syscall.Munmap, nil
}

// mapRW maps size bytes of f read-write and shared: stores land in the page
// cache, so the release func only has to unmap — the builder runs Rows and
// ReversePorts on typed views of the mapping instead of seeking.
func mapRW(f *os.File, size int64) (data []byte, release func([]byte) error, err error) {
	if size == 0 {
		return nil, releaseNothing, nil
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	return b, syscall.Munmap, nil
}

func releaseNothing([]byte) error { return nil }
