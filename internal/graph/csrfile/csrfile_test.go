package csrfile_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/graph/csrfile"
	"randlocal/internal/prng"
)

// buildStream drives a streaming Builder with the given edges and returns
// the finalized header.
func buildStream(t *testing.T, path string, n int, edges [][2]int) csrfile.Header {
	t.Helper()
	b, err := csrfile.NewBuilder(path, n)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	hdr, err := b.Finalize()
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return hdr
}

// randomEdges draws count endpoint pairs on n nodes, duplicates and
// self-loops included — both builders must drop/dedup them identically.
func randomEdges(rng *prng.SplitMix64, n, count int) [][2]int {
	edges := make([][2]int, count)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return edges
}

// streamCase is one edge list the two builders must agree on.
type streamCase struct {
	name  string
	n     int
	edges [][2]int
}

// streamCases are random multigraphs of growing size, duplicates and
// self-loops included, plus a hub of degree 100 whose edges each recur three
// times in alternating orientation among self-loops on the hub and a leaf —
// a row the streaming builder must sort and dedup in place.
// FuzzStreamingBuilder seeds from them.
var streamCases = func() []streamCase {
	rng := prng.New(7)
	var cases []streamCase
	for _, tc := range []struct{ n, count int }{
		{1, 0}, {2, 1}, {5, 12}, {33, 100}, {257, 2000}, {1000, 500},
	} {
		cases = append(cases, streamCase{fmt.Sprintf("random-n%d-m%d", tc.n, tc.count), tc.n, randomEdges(rng, tc.n, tc.count)})
	}
	const hub = 5
	var edges [][2]int
	for rep := 0; rep < 3; rep++ {
		for w := 199; w >= 100; w-- {
			if rep%2 == 0 {
				edges = append(edges, [2]int{hub, w})
			} else {
				edges = append(edges, [2]int{w, hub})
			}
			if w%10 == 0 {
				edges = append(edges, [2]int{hub, hub}, [2]int{w, w})
			}
		}
	}
	edges = append(edges, randomEdges(rng, 200, 50)...)
	return append(cases, streamCase{"hub-duplicates-selfloops", 200, edges})
}()

// writeInRAM builds edges with graph.Builder and writes the graph to path.
func writeInRAM(t *testing.T, path string, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Graph()
	if err := graph.WriteCSRFile(g, path); err != nil {
		t.Fatalf("n=%d WriteCSRFile: %v", n, err)
	}
	return g
}

// TestStreamingBuilderMatchesInRAM is the core format equivalence: the
// streaming builder and the in-RAM graph.Builder must produce byte-identical
// files from the same edge multiset, in any AddEdge order.
func TestStreamingBuilderMatchesInRAM(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range streamCases {
		edges := tc.edges
		ramPath := filepath.Join(dir, "ram.csr")
		g := writeInRAM(t, ramPath, tc.n, edges)

		streamPath := filepath.Join(dir, "stream.csr")
		hdr := buildStream(t, streamPath, tc.n, edges)
		if hdr.N != tc.n || hdr.Edges() != int64(g.M()) {
			t.Fatalf("n=%d header {n=%d m=%d}, want {n=%d m=%d}", tc.n, hdr.N, hdr.Edges(), tc.n, g.M())
		}

		// Reversed insertion order must not change a single byte.
		revPath := filepath.Join(dir, "reversed.csr")
		reversed := make([][2]int, len(edges))
		for i, e := range edges {
			reversed[len(edges)-1-i] = [2]int{e[1], e[0]}
		}
		buildStream(t, revPath, tc.n, reversed)

		want, err := os.ReadFile(ramPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{streamPath, revPath} {
			got, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: %s differs from the in-RAM build", tc.name, filepath.Base(p))
			}
			if err := csrfile.Verify(p); err != nil {
				t.Fatalf("Verify(%s): %v", p, err)
			}
		}

		// And the mapping must load back as the same graph.
		gf, closer, err := graph.OpenCSRFile(streamPath)
		if err != nil {
			t.Fatalf("OpenCSRFile: %v", err)
		}
		if !g.Equal(gf) {
			t.Fatalf("n=%d: file-backed graph differs from in-RAM", tc.n)
		}
		if err := gf.Validate(); err != nil {
			t.Fatalf("n=%d: file-backed Validate: %v", tc.n, err)
		}
		if err := closer.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// FuzzStreamingBuilder holds the streaming builder to graph.Builder on
// arbitrary edge lists — any order, duplicates, self-loops: the streamed file
// must equal WriteCSRFile of the in-RAM graph byte for byte. An input is a
// little-endian uint16 n-1 followed by uint16 endpoint pairs taken mod n.
func FuzzStreamingBuilder(f *testing.F) {
	for _, tc := range streamCases {
		data := binary.LittleEndian.AppendUint16(nil, uint16(tc.n-1))
		for _, e := range tc.edges {
			data = binary.LittleEndian.AppendUint16(data, uint16(e[0]))
			data = binary.LittleEndian.AppendUint16(data, uint16(e[1]))
		}
		f.Add(data)
	}
	dir := f.TempDir()
	ramPath, streamPath := filepath.Join(dir, "ram.csr"), filepath.Join(dir, "stream.csr")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) + 1
		var edges [][2]int
		for i := 2; i+4 <= len(data); i += 4 {
			u := int(binary.LittleEndian.Uint16(data[i:])) % n
			v := int(binary.LittleEndian.Uint16(data[i+2:])) % n
			edges = append(edges, [2]int{u, v})
		}
		writeInRAM(t, ramPath, n, edges)
		buildStream(t, streamPath, n, edges)
		want, err := os.ReadFile(ramPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(streamPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("n=%d, %d edges: streamed file differs from the in-RAM build", n, len(edges))
		}
	})
}

func TestOpenGNPRoundTrip(t *testing.T) {
	g := graph.GNPConnected(300, 0.02, prng.New(3))
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := graph.WriteCSRFile(g, path); err != nil {
		t.Fatal(err)
	}
	if err := csrfile.Verify(path); err != nil {
		t.Fatal(err)
	}
	gf, closer, err := graph.OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if !g.Equal(gf) {
		t.Fatal("file-backed graph differs")
	}
	off, adj, rev := g.CSR()
	offF, adjF, revF := gf.CSR()
	if len(offF) != len(off) || len(adjF) != len(adj) || len(revF) != len(rev) {
		t.Fatalf("CSR shapes differ: (%d,%d,%d) vs (%d,%d,%d)",
			len(offF), len(adjF), len(revF), len(off), len(adj), len(rev))
	}
	for i := range rev {
		if rev[i] != revF[i] {
			t.Fatalf("rev[%d] = %d, want %d", i, revF[i], rev[i])
		}
	}
}

func TestBuilderErrorPaths(t *testing.T) {
	dir := t.TempDir()

	t.Run("out-of-range", func(t *testing.T) {
		b, err := csrfile.NewBuilder(filepath.Join(dir, "oor.csr"), 4)
		if err != nil {
			t.Fatal(err)
		}
		b.AddEdge(0, 1)
		b.AddEdge(2, 7) // latches
		b.AddEdge(1, 2) // no-op after the error
		if _, err := b.Finalize(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("Finalize error = %v, want out-of-range", err)
		}
	})

	t.Run("overflow-guard", func(t *testing.T) {
		defer csrfile.SetMaxHalfEdges(6)()
		b, err := csrfile.NewBuilder(filepath.Join(dir, "cap.csr"), 10)
		if err != nil {
			t.Fatal(err)
		}
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		b.AddEdge(2, 3) // exactly at the cap: still fine
		if b.Err() != nil {
			t.Fatalf("unexpected error at the cap: %v", b.Err())
		}
		b.AddEdge(3, 4) // past it
		if _, err := b.Finalize(); err == nil || !strings.Contains(err.Error(), "half-edges") {
			t.Fatalf("Finalize error = %v, want the half-edge overflow guard", err)
		}
	})

	t.Run("double-finalize", func(t *testing.T) {
		path := filepath.Join(dir, "twice.csr")
		b, err := csrfile.NewBuilder(path, 3)
		if err != nil {
			t.Fatal(err)
		}
		b.AddEdge(0, 1)
		if _, err := b.Finalize(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Finalize(); err == nil {
			t.Fatal("second Finalize succeeded")
		}
	})

	t.Run("negative-n", func(t *testing.T) {
		if _, err := csrfile.NewBuilder(filepath.Join(dir, "neg.csr"), -1); err == nil {
			t.Fatal("NewBuilder(-1) succeeded")
		}
	})

	t.Run("abort-removes-temp", func(t *testing.T) {
		sub := filepath.Join(dir, "abort")
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := csrfile.NewBuilder(filepath.Join(sub, "a.csr"), 3)
		if err != nil {
			t.Fatal(err)
		}
		b.AddEdge(0, 1)
		b.Abort()
		ents, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("Abort left %d files behind", len(ents))
		}
	})
}

func TestOpenRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	g := graph.GNPConnected(64, 0.1, prng.New(1))
	if err := graph.WriteCSRFile(g, path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(b []byte) string {
		p := filepath.Join(dir, "bad.csr")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mutate := func(mutatefn func(b []byte)) string {
		b := append([]byte(nil), orig...)
		mutatefn(b)
		return write(b)
	}

	for _, tc := range []struct {
		name string
		path string
	}{
		{"bad-magic", mutate(func(b []byte) { b[0] ^= 0xff })},
		{"bad-version", mutate(func(b []byte) { b[8] = 99 })},
		{"nonzero-flags", mutate(func(b []byte) { b[12] = 1 })},
		{"nonzero-reserved", mutate(func(b []byte) { b[50] = 1 })},
		{"odd-half-edges", mutate(func(b []byte) { b[24]++ })},
		{"truncated-header", write(orig[:32])},
		{"truncated-arrays", write(orig[:len(orig)-4])},
		{"trailing-garbage", write(append(append([]byte(nil), orig...), 0))},
	} {
		if _, err := csrfile.Open(tc.path); err == nil {
			t.Errorf("%s: Open succeeded", tc.name)
		}
		if err := csrfile.Verify(tc.path); err == nil {
			t.Errorf("%s: Verify succeeded", tc.name)
		}
	}

	// A flipped array byte passes Open (which by design does not checksum
	// the O(m) payload) but must fail Verify.
	flipped := mutate(func(b []byte) { b[len(b)-1] ^= 0x40 })
	if m, err := csrfile.Open(flipped); err != nil {
		t.Errorf("Open with flipped array byte: %v (header checks should pass)", err)
	} else {
		m.Close()
	}
	if err := csrfile.Verify(flipped); err == nil {
		t.Error("Verify missed a flipped array byte")
	}
}

func TestWriteRejectsBadShapes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csr")
	if err := csrfile.Write(path, []int64{0, 2}, []int32{1, 0}, []int32{1}); err == nil {
		t.Error("Write accepted mismatched adj/rev lengths")
	}
	if err := csrfile.Write(path, []int64{0, 1}, []int32{1, 0}, []int32{1, 0}); err == nil {
		t.Error("Write accepted offsets that do not frame adj")
	}
}

// TestStreamingBuildHeapON is the out-of-core guarantee: building a graph
// whose edge stream is tens of megabytes must allocate only O(n) heap (the
// counters and fixed buffers), because the edges live in a temp file and the
// scatter and row sort run through file mappings, not Go slices.
func TestStreamingBuildHeapON(t *testing.T) {
	if !csrfile.MmapSupported {
		t.Skip("fallback build buffers files in RAM; the O(n) bound only holds with mmap")
	}
	const n = 2048 // K_n: ~2.1M edges, a ~16 MiB edge stream on disk
	path := filepath.Join(t.TempDir(), "kn.csr")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := csrfile.NewBuilder(path, n)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	hdr, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if want := int64(n) * (n - 1); hdr.HalfEdges != want {
		t.Fatalf("half-edges = %d, want %d", hdr.HalfEdges, want)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	streamBytes := uint64(8 * n * (n - 1)) // what an in-RAM edge list alone would cost
	if limit := uint64(16 << 20); allocated > limit {
		t.Fatalf("streaming build allocated %d bytes (limit %d; an in-RAM half-edge list is %d) — edges are leaking into the heap",
			allocated, limit, streamBytes)
	}
	t.Logf("streaming K_%d build: %d half-edges, %.1f MiB as an in-RAM half-edge list, %.2f MiB heap allocated",
		n, hdr.HalfEdges, float64(streamBytes)/(1<<20), float64(allocated)/(1<<20))
}
