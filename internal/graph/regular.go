package graph

import (
	"fmt"
	"math/bits"

	"randlocal/internal/prng"
)

// RandomRegular returns a random d-regular graph on n nodes via the
// configuration model with edge-swap repair: a random stub pairing is
// drawn, and while some pair is a self-loop or a parallel edge, the first
// such pair swaps one endpoint with a uniformly chosen pair (the standard
// repair that keeps the distribution close to uniform and, unlike
// whole-sample rejection, stays fast for all constant d). A repair step
// costs O(1) expected time besides the search for the next bad pair, which
// only moves forward between swaps (see pairRepair). It requires n·d even
// and d < n, and panics if the repair has not converged after 1000 steps
// per pair.
func RandomRegular(n, d int, rng *prng.SplitMix64) *Graph {
	edges := regularEdges(n, d, rng)
	deg := make([]int64, n)
	for v := range deg {
		deg[v] = int64(d)
	}
	return assemble(deg, edges)
}

// regularEdges draws and repairs RandomRegular's stub pairing and returns
// its pairs as packed edges u<<32|v.
func regularEdges(n, d int, rng *prng.SplitMix64) []uint64 {
	if d >= n || n*d%2 != 0 {
		panic(fmt.Sprintf("graph: RandomRegular(%d, %d) infeasible", n, d))
	}
	if d == 0 {
		return nil
	}
	if int64(n)*int64(d) > maxHalfEdges {
		panic(fmt.Sprintf("graph: RandomRegular(%d, %d) exceeds the int32 CSR half-edge limit %d", n, d, maxHalfEdges))
	}
	stubs := make([]int32, n*d)
	for i := range stubs {
		stubs[i] = int32(i / d)
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	// Pair p is {stubs[2p], stubs[2p+1]}.
	numPairs := len(stubs) / 2
	r := newPairRepair(stubs)
	for guard := 0; ; guard++ {
		if guard > 1000*numPairs {
			panic("graph: RandomRegular repair did not converge")
		}
		p := r.firstBad()
		if p < 0 {
			break
		}
		q := rng.Intn(numPairs)
		if q == p {
			continue
		}
		r.swap(p, q)
	}
	edges := make([]uint64, numPairs)
	for p := range edges {
		edges[p] = uint64(stubs[2*p])<<32 | uint64(uint32(stubs[2*p+1]))
	}
	return edges
}

// pairRepair finds the first bad stub pair — a self-loop, or one of two or
// more pairs on the same edge — without rescanning the pairs. Pairs with
// the same edge key (uint64(min)<<32 | max) form a doubly linked chain, so a
// pair is parallel exactly when it has a chain neighbour. The bitset bad
// holds every bad pair and possibly some that are good again: firstBad pops
// bits from the lowest set word on and checks each one, and a swap marks
// only the pairs whose key counts grew.
type pairRepair struct {
	stubs      []int32
	prev, next []int32 // chain links; -1 ends a chain

	// The per-key table: open addressing with linear probing, grown at
	// three quarters full.
	table []keySlot
	used  int
	shift uint

	bad    []uint64
	cursor int // every word below bad[cursor] is zero
}

// keySlot is one entry of the per-key table. head is the first pair of the
// key's chain, -1 once the chain is empty, and unusedSlot in a free slot.
type keySlot struct {
	key  uint64
	head int32
}

const unusedSlot = -2

func newPairRepair(stubs []int32) *pairRepair {
	numPairs := len(stubs) / 2
	r := &pairRepair{
		stubs: stubs,
		prev:  make([]int32, numPairs),
		next:  make([]int32, numPairs),
		bad:   make([]uint64, (numPairs+63)/64),
	}
	r.resize(2 * numPairs)
	for p := range numPairs {
		r.link(p)
	}
	return r
}

// resize makes a table of at least size slots (a power of two) and
// reinserts every key whose chain is not empty.
func (r *pairRepair) resize(size int) {
	logSize := max(bits.Len(uint(size-1)), 4)
	old := r.table
	r.table = make([]keySlot, 1<<logSize)
	for i := range r.table {
		r.table[i].head = unusedSlot
	}
	r.shift = uint(64 - logSize)
	r.used = 0
	for _, e := range old {
		if e.head >= 0 {
			r.table[r.slot(e.key)].head = e.head
		}
	}
}

// slot returns the table slot of key, claiming an unused one (with an
// empty chain) if the key is new.
func (r *pairRepair) slot(key uint64) int {
	mask := len(r.table) - 1
	i := int((key * 0x9e3779b97f4a7c15) >> r.shift)
	for ; r.table[i].head != unusedSlot; i = (i + 1) & mask {
		if r.table[i].key == key {
			return i
		}
	}
	if 4*(r.used+1) > 3*len(r.table) {
		r.resize(2 * len(r.table))
		return r.slot(key)
	}
	r.table[i] = keySlot{key: key, head: -1}
	r.used++
	return i
}

func (r *pairRepair) key(p int) uint64 {
	a, b := uint32(r.stubs[2*p]), uint32(r.stubs[2*p+1])
	return uint64(min(a, b))<<32 | uint64(max(a, b))
}

func (r *pairRepair) isBad(p int) bool {
	return r.stubs[2*p] == r.stubs[2*p+1] || r.prev[p] >= 0 || r.next[p] >= 0
}

func (r *pairRepair) mark(p int) {
	r.bad[p>>6] |= 1 << (p & 63)
	r.cursor = min(r.cursor, p>>6)
}

// link puts p at the head of its key's chain and marks what became bad: p
// if it is a self-loop or joins a chain, and the old head if it was alone.
func (r *pairRepair) link(p int) {
	e := &r.table[r.slot(r.key(p))]
	h := e.head
	r.prev[p], r.next[p] = -1, h
	e.head = int32(p)
	if h >= 0 {
		r.prev[h] = int32(p)
		if r.next[h] < 0 {
			r.mark(int(h))
		}
	}
	if r.isBad(p) {
		r.mark(p)
	}
}

func (r *pairRepair) unlink(p int) {
	prev, next := r.prev[p], r.next[p]
	if prev >= 0 {
		r.next[prev] = next
	} else {
		r.table[r.slot(r.key(p))].head = next
	}
	if next >= 0 {
		r.prev[next] = prev
	}
}

// swap exchanges the second stubs of pairs p and q.
func (r *pairRepair) swap(p, q int) {
	r.unlink(p)
	r.unlink(q)
	r.stubs[2*p+1], r.stubs[2*q+1] = r.stubs[2*q+1], r.stubs[2*p+1]
	r.link(p)
	r.link(q)
}

// firstBad returns the smallest bad pair, or -1 if every pair is good.
func (r *pairRepair) firstBad() int {
	for r.cursor < len(r.bad) {
		w := r.bad[r.cursor]
		if w == 0 {
			r.cursor++
			continue
		}
		p := r.cursor*64 + bits.TrailingZeros64(w)
		if r.isBad(p) {
			return p
		}
		r.bad[r.cursor] = w &^ (1 << (p & 63))
	}
	return -1
}
