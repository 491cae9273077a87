package csrfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Builder streams an edge list into a CSR graph file without ever holding
// the edges in RAM. AddEdge appends one 8-byte record per edge to a
// temporary file. Finalize makes one sequential pass over that stream,
// scattering each edge straight into both endpoints' rows of the output
// file's adjacency array, then sorts and dedups every row in place, derives
// the reverse-port table and checksums the result. The rows come out sorted
// and duplicate-free exactly as graph.Builder's counting sort leaves them,
// so the same edge multiset produces a byte-identical file regardless of
// which builder (or what AddEdge order) emitted it.
//
// Peak heap is O(n): two int64 arrays of per-node counters, one scratch row
// as long as the largest degree counted with duplicates, and fixed buffers.
// The O(m) traffic lives in the page cache, where the OS can evict it. (On
// builds without mmap the edge stream and the output file are O(m) RAM
// buffers; see mmap_fallback.go.)
//
// Errors are sticky: the first failure (I/O, out-of-range endpoint, or the
// int32 half-edge overflow guard) latches, later AddEdge calls become no-ops
// and Finalize reports it. A Builder must be finished with exactly one
// Finalize or Abort, either of which removes the temporary file.
type Builder struct {
	n    int
	path string

	tmp  *os.File // the edge stream: one packed uint64 u<<32|v per AddEdge
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
	binary.LittleEndian.PutUint64(b.buf[:], uint64(u)<<32|uint64(uint32(v)))
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
	// duplicates); the file is trimmed to the deduped size at the end.
	out, err := os.Create(b.path)
	if err != nil {
		return Header{}, err
	}
	defer out.Close()
	n := int64(b.n)
	maxSize := headerSize + 8*(n+1) + 8*b.half
	if err := out.Truncate(maxSize); err != nil {
		return Header{}, err
	}
	mo, release, err := mapRW(out, maxSize)
	if err != nil {
		return Header{}, err
	}
	fileErr := func(err error) (Header, error) {
		release(mo)
		return Header{}, err
	}

	// Scatter: one sequential pass over the edge stream writes v into row u
	// and u into row v, each at its row's cursor. off[:n] starts as the
	// exclusive prefix sums of deg, so the raw rows (duplicates included,
	// in AddEdge order) tile the adjacency region exactly.
	adjStart := headerSize + 8*(n+1)
	off := make([]int64, n+1)
	var maxDeg int64
	for v, d := range b.deg {
		off[v+1] = off[v] + d
		maxDeg = max(maxDeg, d)
	}
	if b.half > 0 {
		edges, releaseEdges, err := mapRO(b.tmp, 4*b.half)
		if err != nil {
			return fileErr(err)
		}
		for i := 0; i < len(edges); i += 8 {
			p := binary.LittleEndian.Uint64(edges[i:])
			u, v := p>>32, p&math.MaxUint32
			binary.LittleEndian.PutUint32(mo[adjStart+4*off[u]:], uint32(v))
			off[u]++
			binary.LittleEndian.PutUint32(mo[adjStart+4*off[v]:], uint32(u))
			off[v]++
		}
		if err := releaseEdges(edges); err != nil {
			return fileErr(err)
		}
	}

	// Rows: copy each raw row into the scratch slice, sort and dedup it, and
	// write it back compacted. Rows are visited in order and a compacted row
	// is never longer than its raw one, so the write index never passes the
	// read index and the compaction runs in place.
	row := make([]uint32, 0, maxDeg)
	var raw, hf int64
	for v := int64(0); v < n; v++ {
		row = row[:0]
		for i := raw; i < raw+b.deg[v]; i++ {
			row = append(row, binary.LittleEndian.Uint32(mo[adjStart+4*i:]))
		}
		raw += b.deg[v]
		slices.Sort(row)
		row = slices.Compact(row)
		off[v] = hf
		for _, w := range row {
			binary.LittleEndian.PutUint32(mo[adjStart+4*hf:], w)
			hf++
		}
	}
	off[n] = hf

	// Reverse-port table: scanning adj in global order visits, for each
	// fixed neighbor w, the sources in ascending order — w's own row order —
	// so a per-node cursor hands out the reverse positions (the same O(m)
	// trick as graph.Builder, with the random writes absorbed by the page
	// cache). deg is spent, so it becomes the cursor array.
	revStart := adjStart + 4*hf
	cur := b.deg
	clear(cur)
	for i := int64(0); i < hf; i++ {
		w := binary.LittleEndian.Uint32(mo[adjStart+4*i:])
		binary.LittleEndian.PutUint32(mo[revStart+4*i:], uint32(off[w]+cur[w]))
		cur[w]++
	}
	for v := int64(0); v <= n; v++ {
		binary.LittleEndian.PutUint64(mo[headerSize+8*v:], uint64(off[v]))
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
