package csrfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
)

// Builder streams an edge list into a CSR graph file without ever holding
// the edges in RAM. AddEdge appends one 8-byte record per edge to a
// temporary file. Finalize maps that stream and the output file and runs the
// shared CSR core on typed views of the mappings: Rows scatters each edge
// into both endpoints' rows of the file's adjacency array and sorts and
// dedups every row in place, ReversePorts derives the reverse-port table,
// and the result is checksummed. graph.Builder runs the same core on heap
// slices, so the same edge multiset produces a byte-identical file
// regardless of which builder (or what AddEdge order) emitted it.
//
// Peak heap is O(n): one int64 array of per-node counters and fixed
// buffers. The O(m) traffic lives in the page cache, where the OS can evict
// it. (On builds without mmap the edge stream and the output file are O(m)
// RAM buffers; see mmap_fallback.go.)
//
// Errors are sticky: the first failure (I/O, out-of-range endpoint, or the
// int32 half-edge overflow guard) latches, later AddEdge calls become no-ops
// and Finalize reports it. A Builder must be finished with exactly one
// Finalize or Abort, either of which removes the temporary file.
type Builder struct {
	n    int
	path string

	tmp  *os.File // the edge stream: one packed native-order uint64 u<<32|v per AddEdge
	bw   *bufio.Writer
	deg  []int64 // per-node half-edge counts, duplicates included
	buf  [8]byte // AddEdge scratch; a field so it never escapes per call
	half int64
	err  error
	done bool
}

// NewBuilder starts a streaming build of a graph on n nodes, to be written
// at path. The temporary edge stream lives next to the output file so both
// stay on one filesystem.
func NewBuilder(path string, n int) (*Builder, error) {
	if n < 0 {
		return nil, fmt.Errorf("csrfile: negative node count %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("csrfile: node count %d exceeds the int32 CSR index range", n)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".edges-*.tmp")
	if err != nil {
		return nil, err
	}
	return &Builder{
		n:    n,
		path: path,
		tmp:  tmp,
		bw:   bufio.NewWriterSize(tmp, 1<<20),
		deg:  make([]int64, n),
	}, nil
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the sticky error, if any, without finishing the build.
func (b *Builder) Err() error { return b.err }

// AddEdge records the undirected edge {u, v}. Self-loops are ignored and
// duplicates are allowed (Finalize dedups), mirroring graph.Builder. Out-of-
// range endpoints and half-edge overflow latch the builder's error.
func (b *Builder) AddEdge(u, v int) {
	if b.err != nil || b.done {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.fail(fmt.Errorf("csrfile: AddEdge(%d, %d) out of range for n=%d", u, v, b.n))
		return
	}
	if u == v {
		return
	}
	if b.half+2 > maxHalfEdges {
		b.fail(fmt.Errorf("csrfile: edge {%d, %d} would push the graph past %d half-edges, which the int32 CSR reverse-port table cannot index",
			u, v, maxHalfEdges))
		return
	}
	binary.NativeEndian.PutUint64(b.buf[:], uint64(u)<<32|uint64(uint32(v)))
	if _, err := b.bw.Write(b.buf[:]); err != nil {
		b.fail(err)
		return
	}
	b.deg[u]++
	b.deg[v]++
	b.half += 2
}

// Abort discards the build and removes the temporary file. Safe to call
// after a failed Finalize; a no-op once the build is finished.
func (b *Builder) Abort() {
	b.cleanup()
}

func (b *Builder) cleanup() {
	b.done = true
	if b.tmp != nil {
		name := b.tmp.Name()
		b.tmp.Close()
		os.Remove(name)
		b.tmp = nil
	}
}

// Finalize sorts, dedups and writes the graph file, returning its header.
// The builder cannot be reused afterwards.
func (b *Builder) Finalize() (Header, error) {
	if b.done {
		return Header{}, fmt.Errorf("csrfile: builder already finished")
	}
	defer b.cleanup()
	if b.err == nil {
		if err := b.bw.Flush(); err != nil {
			b.fail(err)
		}
	}
	if b.err != nil {
		return Header{}, b.err
	}

	// Assemble the output through a mapping sized for the worst case (no
	// duplicates); the file is trimmed to the deduped size at the end. The
	// rows are compacted before the reverse-port table is placed after them.
	out, err := os.Create(b.path)
	if err != nil {
		return Header{}, err
	}
	defer out.Close()
	n := int64(b.n)
	adjStart := headerSize + 8*(n+1)
	maxSize := adjStart + 8*b.half
	if err := out.Truncate(maxSize); err != nil {
		return Header{}, err
	}
	mo, release, err := mapRW(out, maxSize)
	if err != nil {
		return Header{}, err
	}
	edges, releaseEdges, err := mapRO(b.tmp, 4*b.half)
	if err != nil {
		release(mo)
		return Header{}, err
	}
	off := alias[int64](mo[headerSize:adjStart])
	hf := Rows(b.deg, alias[uint64](edges), off, alias[int32](mo[adjStart:maxSize]))
	if err := releaseEdges(edges); err != nil {
		release(mo)
		return Header{}, err
	}
	revStart := adjStart + 4*hf
	adj, rev := alias[int32](mo[adjStart:revStart]), alias[int32](mo[revStart:revStart+4*hf])
	ReversePorts(off, adj, rev, b.deg)
	if !nativeLittleEndian {
		swapBytes(off, adj, rev)
	}
	hdr := Header{
		Version:   version,
		N:         b.n,
		HalfEdges: hf,
		Checksum:  crc64.Checksum(mo[headerSize:revStart+4*hf], crcTable),
	}
	encodeHeader(mo[:headerSize], hdr)
	if err := release(mo); err != nil {
		return Header{}, err
	}
	if err := out.Truncate(hdr.FileSize()); err != nil {
		return Header{}, err
	}
	if err := out.Close(); err != nil {
		return Header{}, err
	}
	return hdr, nil
}
