// Package csrfile defines the out-of-core on-disk format for the flat CSR
// graph representation: a fixed little-endian header followed by the three
// arrays package graph's engines index by half-edge — offsets (int64),
// neighbors (int32) and the reverse-port table (int32) — laid out exactly as
// they sit in RAM, so a read-only file mapping can back a *graph.Graph with
// zero copies (graph.OpenCSRFile).
//
// Files are produced either from an in-RAM graph (Write) or by the streaming
// Builder, which runs the CSR core every builder shares (Rows, then
// ReversePorts) on the file mapping itself: an on-disk edge stream is
// scattered straight into the file's adjacency rows and each row is sorted
// in place, so peak heap stays O(n) no matter how many edges the graph has —
// the point of the format is graphs whose edge arrays do not fit in RAM.
//
// # Layout
//
//	[0,  64)              header (see below)
//	[64, 64+8(n+1))       off — n+1 little-endian int64 row offsets
//	[.., .. + 4h)         adj — h little-endian int32 neighbor entries
//	[.., .. + 4h)         rev — h little-endian int32 reverse half-edges
//
// where h is the half-edge count (2m). The header is
//
//	[0,  8)   magic "CSRFILE1"
//	[8,  12)  format version (uint32, currently 1)
//	[12, 16)  flags (uint32, must be 0)
//	[16, 24)  n, the node count (uint64)
//	[24, 32)  h, the half-edge count (uint64, even)
//	[32, 40)  CRC-64/ECMA of every byte after the header (uint64)
//	[40, 64)  reserved, must be 0
//
// The file size is fully determined by n and h, which Open checks exactly;
// the checksum is verified only by Verify (an O(file) pass that would defeat
// the zero-copy mapping if Open did it on every load).
package csrfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"math/bits"
	"unsafe"
)

const (
	headerSize = 64
	version    = 1
)

var magic = [8]byte{'C', 'S', 'R', 'F', 'I', 'L', 'E', '1'}

// crcTable is the checksum polynomial; ECMA is the conventional choice for
// 64-bit file checksums in the Go standard library.
var crcTable = crc64.MakeTable(crc64.ECMA)

// maxHalfEdges caps the half-edge count: rev entries are int32, so a graph
// with 2^31 or more half-edges cannot be indexed by the CSR tables at all.
// It is a variable (not a const) only so tests can lower it and exercise the
// overflow path without a 16 GiB edge stream.
var maxHalfEdges = int64(math.MaxInt32)

// Header describes one CSR graph file.
type Header struct {
	Version   uint32
	N         int   // node count
	HalfEdges int64 // 2m, the length of adj and rev
	Checksum  uint64
}

// Edges returns the undirected edge count m.
func (h Header) Edges() int64 { return h.HalfEdges / 2 }

// FileSize returns the exact byte size of a file with this header.
func (h Header) FileSize() int64 {
	return headerSize + 8*(int64(h.N)+1) + 8*h.HalfEdges
}

// array-region offsets within the file.
func (h Header) offStart() int64 { return headerSize }
func (h Header) adjStart() int64 { return headerSize + 8*(int64(h.N)+1) }
func (h Header) revStart() int64 { return h.adjStart() + 4*h.HalfEdges }

func encodeHeader(buf []byte, h Header) {
	for i := range buf[:headerSize] {
		buf[i] = 0
	}
	copy(buf[0:8], magic[:])
	binary.LittleEndian.PutUint32(buf[8:12], h.Version)
	binary.LittleEndian.PutUint32(buf[12:16], 0) // flags
	binary.LittleEndian.PutUint64(buf[16:24], uint64(h.N))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(h.HalfEdges))
	binary.LittleEndian.PutUint64(buf[32:40], h.Checksum)
}

// decodeHeader parses and sanity-checks a header block. The caller still has
// to check the file size against FileSize().
func decodeHeader(buf []byte) (Header, error) {
	if len(buf) < headerSize {
		return Header{}, fmt.Errorf("csrfile: file shorter than the %d-byte header", headerSize)
	}
	if [8]byte(buf[0:8]) != magic {
		return Header{}, fmt.Errorf("csrfile: bad magic %q (not a CSR graph file)", buf[0:8])
	}
	h := Header{
		Version:   binary.LittleEndian.Uint32(buf[8:12]),
		HalfEdges: int64(binary.LittleEndian.Uint64(buf[24:32])),
		Checksum:  binary.LittleEndian.Uint64(buf[32:40]),
	}
	if h.Version != version {
		return Header{}, fmt.Errorf("csrfile: unsupported format version %d (want %d)", h.Version, version)
	}
	if flags := binary.LittleEndian.Uint32(buf[12:16]); flags != 0 {
		return Header{}, fmt.Errorf("csrfile: unknown flags %#x", flags)
	}
	n := binary.LittleEndian.Uint64(buf[16:24])
	if n > math.MaxInt32 {
		return Header{}, fmt.Errorf("csrfile: node count %d exceeds the int32 CSR index range", n)
	}
	h.N = int(n)
	if h.HalfEdges < 0 || h.HalfEdges > int64(math.MaxInt32) {
		return Header{}, fmt.Errorf("csrfile: half-edge count %d exceeds the int32 CSR index range", h.HalfEdges)
	}
	if h.HalfEdges%2 != 0 {
		return Header{}, fmt.Errorf("csrfile: odd half-edge count %d (every undirected edge stores two)", h.HalfEdges)
	}
	for _, b := range buf[40:headerSize] {
		if b != 0 {
			return Header{}, fmt.Errorf("csrfile: reserved header bytes not zero")
		}
	}
	return h, nil
}

// nativeLittleEndian reports whether the host lays uint64s out in the file's
// byte order, which is what lets Open alias the mapping as typed slices
// instead of decoding a copy, and the streaming Builder skip swapBytes.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedBytes allocates n bytes with 8-byte base alignment (backed by a
// []uint64), so the fallback loader and builder can alias the buffer as
// int64s exactly like a page-aligned mapping.
func alignedBytes(n int64) []byte {
	if n == 0 {
		return nil
	}
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n)
}

// alias reinterprets a byte region, in host byte order, as a []T in place.
func alias[T int32 | int64 | uint64](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(T(0))))
}

// swapBytes reverses the byte order of every entry of off, adj and rev in
// place: on a big-endian host it turns natively assembled arrays into the
// file's little-endian layout.
func swapBytes(off []int64, adj, rev []int32) {
	for i, x := range off {
		off[i] = int64(bits.ReverseBytes64(uint64(x)))
	}
	for _, a := range [][]int32{adj, rev} {
		for i, x := range a {
			a[i] = int32(bits.ReverseBytes32(uint32(x)))
		}
	}
}
