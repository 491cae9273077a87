package csrfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
)

// Mapping is an opened CSR graph file: the header plus the three CSR arrays.
// On little-endian hosts with mmap the slices alias the read-only file
// mapping directly — zero copies, and any accidental store through them
// faults instead of silently corrupting the graph. The arrays stay valid
// until Close.
type Mapping struct {
	Header Header
	Off    []int64
	Adj    []int32
	Rev    []int32

	data    []byte
	release func([]byte) error
	f       *os.File
}

// Close releases the mapping and the underlying file. The CSR slices must
// not be used afterwards.
func (m *Mapping) Close() error {
	var err error
	if m.data != nil && m.release != nil {
		err = m.release(m.data)
		m.data, m.release = nil, nil
	}
	m.Off, m.Adj, m.Rev = nil, nil, nil
	if m.f != nil {
		if cerr := m.f.Close(); err == nil {
			err = cerr
		}
		m.f = nil
	}
	return err
}

// ReadHeader reads and sanity-checks a graph file's header (including the
// exact file size the header implies) without mapping the arrays — the cheap
// pre-validation servers run before accepting a file-backed request.
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return readHeader(f, path)
}

func readHeader(f *os.File, path string) (Header, error) {
	var buf [headerSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, headerSize), buf[:]); err != nil {
		return Header{}, fmt.Errorf("%s: csrfile: reading header: %w", path, err)
	}
	hdr, err := decodeHeader(buf[:])
	if err != nil {
		return Header{}, fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return Header{}, err
	}
	if st.Size() != hdr.FileSize() {
		return Header{}, fmt.Errorf("%s: csrfile: file is %d bytes, header implies %d (truncated or corrupt)",
			path, st.Size(), hdr.FileSize())
	}
	return hdr, nil
}

// Open maps a CSR graph file. The header and file size are checked; the
// array bytes are not (use Verify for the full checksum pass — running it on
// every Open would touch the whole file and defeat the lazy mapping).
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr, err := readHeader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	data, release, err := mapRO(f, hdr.FileSize())
	if err != nil {
		f.Close()
		return nil, err
	}
	m := &Mapping{Header: hdr, f: f}
	if nativeLittleEndian {
		m.data, m.release = data, release
		m.Off = alias[int64](data[hdr.offStart():hdr.adjStart()])
		m.Adj = alias[int32](data[hdr.adjStart():hdr.revStart()])
		m.Rev = alias[int32](data[hdr.revStart():])
		return m, nil
	}
	// Big-endian host: decode copies and drop the mapping right away.
	m.Off = make([]int64, hdr.N+1)
	m.Adj = make([]int32, hdr.HalfEdges)
	m.Rev = make([]int32, hdr.HalfEdges)
	for i := range m.Off {
		m.Off[i] = int64(binary.LittleEndian.Uint64(data[hdr.offStart()+8*int64(i):]))
	}
	for i := range m.Adj {
		m.Adj[i] = int32(binary.LittleEndian.Uint32(data[hdr.adjStart()+4*int64(i):]))
		m.Rev[i] = int32(binary.LittleEndian.Uint32(data[hdr.revStart()+4*int64(i):]))
	}
	if err := release(data); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// Verify checks a graph file's checksum: one sequential pass over every byte
// after the header, compared against the header's CRC-64. Builders run it
// after writing; loaders skip it by design.
func Verify(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, err := readHeader(f, path)
	if err != nil {
		return err
	}
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		return err
	}
	crc := crc64.New(crcTable)
	if _, err := io.Copy(crc, bufio.NewReaderSize(f, 1<<20)); err != nil {
		return fmt.Errorf("%s: csrfile: checksum pass: %w", path, err)
	}
	if sum := crc.Sum64(); sum != hdr.Checksum {
		return fmt.Errorf("%s: csrfile: checksum mismatch: file %#x, header %#x (corrupt array bytes)",
			path, sum, hdr.Checksum)
	}
	return nil
}
