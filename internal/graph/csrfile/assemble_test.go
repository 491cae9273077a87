package csrfile

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"
)

// TestSwapBytes checks the big-endian fix-up on any host: after swapBytes
// every entry's bytes in memory read as its value in the non-native byte
// order (the file's little-endian order on a big-endian host), and a
// second swap restores the arrays.
func TestSwapBytes(t *testing.T) {
	off := []int64{0, 3, 1 << 40, -2}
	adj := []int32{1, 0x01020304, -7}
	rev := []int32{2, 0x7f000001, 0}
	wantOff, wantAdj, wantRev := slices.Clone(off), slices.Clone(adj), slices.Clone(rev)
	var other binary.AppendByteOrder = binary.BigEndian
	if !nativeLittleEndian {
		other = binary.LittleEndian
	}
	var want []byte
	for _, x := range off {
		want = other.AppendUint64(want, uint64(x))
	}
	for _, a := range [][]int32{adj, rev} {
		for _, x := range a {
			want = other.AppendUint32(want, uint32(x))
		}
	}

	swapBytes(off, adj, rev)
	got := slices.Concat(
		unsafe.Slice((*byte)(unsafe.Pointer(&off[0])), 8*len(off)),
		unsafe.Slice((*byte)(unsafe.Pointer(&adj[0])), 4*len(adj)),
		unsafe.Slice((*byte)(unsafe.Pointer(&rev[0])), 4*len(rev)))
	if !bytes.Equal(got, want) {
		t.Fatalf("swapped bytes %x, want %x", got, want)
	}
	swapBytes(off, adj, rev)
	if !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) || !slices.Equal(rev, wantRev) {
		t.Fatalf("two swaps gave %v %v %v, want %v %v %v", off, adj, rev, wantOff, wantAdj, wantRev)
	}
}
