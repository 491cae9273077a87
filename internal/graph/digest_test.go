package graph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"randlocal/internal/prng"
)

// csrDigest is FNV-1a over the graph's CSR arrays (off as little-endian
// int64s, then adj and rev as little-endian int32s): a change to any row,
// any row order or the reverse-port table changes it.
func csrDigest(g *Graph) uint64 {
	h := fnv.New64a()
	off, adj, rev := g.CSR()
	var b [8]byte
	for _, x := range off {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	for _, a := range [][]int32{adj, rev} {
		for _, x := range a {
			binary.LittleEndian.PutUint32(b[:4], uint32(x))
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}

// TestGNPDigestPins pins the graphs GNP and GNPConnected draw, so a change
// to the shared pair loop or to the component linking cannot move every
// generated instance (and every golden result built on one) unnoticed. The
// cases cover n < 2, p = 0, p = 1, dense and sparse p and the 2^15 daemon
// shape.
func TestGNPDigestPins(t *testing.T) {
	for _, c := range []struct {
		n                 int
		p                 float64
		seed              uint64
		gnp, gnpConnected uint64
	}{
		{0, 0.5, 1, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5},
		{1, 0.3, 2, 0x88201fb960ff6465, 0x88201fb960ff6465},
		{60, 0, 3, 0xb9973041df137f45, 0x831fd43e0baa722e},
		{40, 1, 4, 0xa422c3533bc5de1a, 0xa422c3533bc5de1a},
		{257, 0.01, 5, 0x3f498506af4b923e, 0x279391198db85980},
		{100, 0.5, 6, 0x82bf641d3bf285ac, 0x82bf641d3bf285ac},
		{1 << 12, 4.0 / (1 << 12), 1, 0x87abbe865012b4da, 0x91214ef0eafdfb26},
		{1 << 15, 4.0 / (1 << 15), 7, 0x8d2c11e05a074571, 0xade04c06c417ad4f},
	} {
		if got := csrDigest(GNP(c.n, c.p, prng.New(c.seed))); got != c.gnp {
			t.Errorf("GNP(%d, %v, seed %d) digest %#x, want %#x", c.n, c.p, c.seed, got, c.gnp)
		}
		g := GNPConnected(c.n, c.p, prng.New(c.seed))
		if got := csrDigest(g); got != c.gnpConnected {
			t.Errorf("GNPConnected(%d, %v, seed %d) digest %#x, want %#x", c.n, c.p, c.seed, got, c.gnpConnected)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("GNPConnected(%d, %v, seed %d): %v", c.n, c.p, c.seed, err)
		}
	}
}

// TestRandomRegularDigestPins pins the graphs RandomRegular draws, so a
// rewrite of its repair loop cannot move the regular instances (and the
// results built on them) unnoticed. The cases cover the smallest shape,
// deg = n/2 (many repairs), mid-size and dense shapes and the 2^14
// daemon-mix shape.
func TestRandomRegularDigestPins(t *testing.T) {
	for _, c := range []struct {
		n, d   int
		seed   uint64
		digest uint64
	}{
		{4, 2, 1, 0xd0cdb4a7d8b627cd},
		{10, 3, 2, 0xf743da63dd7f2b30},
		{64, 32, 3, 0x49b536b10328db51},
		{1000, 3, 4, 0x3069af5c38381128},
		{1 << 12, 16, 5, 0x2f4954b7494737f8},
		{1 << 14, 4, 6, 0xecf6cd78ba65001c},
	} {
		g := RandomRegular(c.n, c.d, prng.New(c.seed))
		if got := csrDigest(g); got != c.digest {
			t.Errorf("RandomRegular(%d, %d, seed %d) digest %#x, want %#x", c.n, c.d, c.seed, got, c.digest)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("RandomRegular(%d, %d, seed %d): %v", c.n, c.d, c.seed, err)
		}
		for v := range g.N() {
			if g.Degree(v) != c.d {
				t.Fatalf("RandomRegular(%d, %d, seed %d): node %d has degree %d", c.n, c.d, c.seed, v, g.Degree(v))
			}
		}
	}
}

// TestRandomRegularUnrepairablePanics runs a draw whose swap repair does
// not converge (n = 64, d = 40, seed 1) to its panic: all 1000·pairs steps,
// which a rescan per step made take seconds.
func TestRandomRegularUnrepairablePanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "graph: RandomRegular repair did not converge" {
			t.Errorf("RandomRegular(64, 40) panicked with %v", r)
		}
	}()
	RandomRegular(64, 40, prng.New(1))
	t.Error("RandomRegular(64, 40) returned")
}
