package csrfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzHeader feeds arbitrary bytes to the loader: the first 64 through
// decodeHeader, the whole input as a graph file through ReadHeader and Open.
// None may panic; a header that decodes re-encodes to the same bytes, and a
// file that opens exposes arrays of exactly the lengths its header states.
func FuzzHeader(f *testing.F) {
	// A triangle, plus the corruptions TestOpenRejectsCorruption applies.
	dir := f.TempDir()
	valid := filepath.Join(dir, "triangle.csr")
	if err := Write(valid, []int64{0, 2, 4, 6}, []int32{1, 2, 0, 2, 0, 1}, []int32{2, 4, 0, 5, 1, 3}); err != nil {
		f.Fatal(err)
	}
	orig, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	mutate := func(fn func(b []byte)) []byte {
		b := bytes.Clone(orig)
		fn(b)
		return b
	}
	for _, seed := range [][]byte{
		orig,
		mutate(func(b []byte) { b[0] ^= 0xff }),        // bad magic
		mutate(func(b []byte) { b[8] = 99 }),           // bad version
		mutate(func(b []byte) { b[12] = 1 }),           // nonzero flags
		mutate(func(b []byte) { b[50] = 1 }),           // nonzero reserved
		mutate(func(b []byte) { b[24]++ }),             // odd half-edge count
		mutate(func(b []byte) { b[len(b)-1] ^= 0x40 }), // flipped array byte
		orig[:32],                    // truncated header
		orig[:len(orig)-4],           // truncated arrays
		append(bytes.Clone(orig), 0), // trailing garbage
		orig[:headerSize],            // header only
	} {
		f.Add(seed)
	}
	path := filepath.Join(dir, "fuzz.csr")
	f.Fuzz(func(t *testing.T, data []byte) {
		if hdr, err := decodeHeader(data[:min(len(data), headerSize)]); err == nil {
			var buf [headerSize]byte
			encodeHeader(buf[:], hdr)
			if !bytes.Equal(buf[:], data[:headerSize]) {
				t.Fatalf("header %+v re-encodes to %x, decoded from %x", hdr, buf, data[:headerSize])
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		hdr, herr := ReadHeader(path)
		m, err := Open(path)
		if (herr == nil) != (err == nil) {
			t.Fatalf("ReadHeader err=%v but Open err=%v", herr, err)
		}
		if err != nil {
			return
		}
		defer m.Close()
		if m.Header != hdr || len(m.Off) != hdr.N+1 || int64(len(m.Adj)) != hdr.HalfEdges || int64(len(m.Rev)) != hdr.HalfEdges {
			t.Fatalf("header %+v opened as n+1=%d adj=%d rev=%d", hdr, len(m.Off), len(m.Adj), len(m.Rev))
		}
	})
}
