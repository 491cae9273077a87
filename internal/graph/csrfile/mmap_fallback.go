//go:build !unix || mmap_unsupported

package csrfile

import "os"

// mmapSupported gates tests and callers that rely on the O(n)-heap builder
// and the zero-copy loader. This fallback build keeps the format and every
// API working on hosts without a usable mmap, but trades the memory
// guarantee away: files are read into (8-byte-aligned) RAM buffers, so the
// builder's edge stream and output file and the loader are O(file) in heap.
const mmapSupported = false

// mapRO reads size bytes of f into an aligned buffer.
func mapRO(f *os.File, size int64) (data []byte, release func([]byte) error, err error) {
	b := alignedBytes(size)
	if size > 0 {
		if _, err := f.ReadAt(b, 0); err != nil {
			return nil, nil, err
		}
	}
	return b, func([]byte) error { return nil }, nil
}

// mapRW reads size bytes of f into an aligned buffer; the release func
// writes the buffer back, which is when the "mapped" stores reach the file.
func mapRW(f *os.File, size int64) (data []byte, release func([]byte) error, err error) {
	b := alignedBytes(size)
	if size > 0 {
		if _, err := f.ReadAt(b, 0); err != nil {
			return nil, nil, err
		}
	}
	release = func(buf []byte) error {
		if len(buf) == 0 {
			return nil
		}
		_, err := f.WriteAt(buf, 0)
		return err
	}
	return b, release, nil
}
