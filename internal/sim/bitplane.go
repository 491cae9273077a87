package sim

import "math/bits"

// denseCutover is the shared density cut-off of every delivery-strategy
// decision: one shard's scatter window takes the dense whole-window path — a
// memclr, which the runtime vectorizes — when denseCutover*staged >= window, and the sparse staged-slot
// walk otherwise. The window is measured in the units the dense path actually
// sweeps: slots for the []Message planes, words for the packed bit planes
// (where one memclr'd word retires 64 slots, so the dense path pays off 64×
// earlier). Both plane kinds must share this constant: the
// cut-off is a pure performance lever with no effect on Results, and keeping
// it in one place is what the TestDenseCutover* pins assert.
const denseCutover = 8

// denseDelivery is the shared decision: true when the staged-message count
// clears the density cut-off for a window of the given size (in slots for
// Message planes, words for packed planes).
func denseDelivery(staged, window int) bool { return denseCutover*staged >= window }

// bitPlane is the packed counterpart of a []Message half-edge plane for runs
// whose programs declare 1-bit payloads (see PayloadBitsDeclarer): slot i of
// the plane is bit i&63 of word i>>6. Each word interleaves two lanes:
// present marks slots holding a message (the analogue of a non-nil Message)
// and value carries the payload bit, so reading a node's inbox window or
// harvesting its out window touches one cache line per plane, not one per
// lane. Invariant: value ⊆ present — every clear clears both lanes, so a
// delivered 0-bit is distinguishable from silence and stale value bits
// cannot leak into a later OR-delivery.
//
// The slice header is what the engine shares with the NodeCtx accessors
// (through the worker's wire); a materialized plane keeps its backing array
// for the whole run, and for the slab's lifetime when pooled.
type bitPlane []bitWord

// bitWord is one 64-slot word of a bitPlane, both lanes side by side.
type bitWord struct {
	present uint64
	value   uint64
}

// newBitPlane returns a zeroed plane covering the given number of slots;
// never nil, even for zero slots, since a nil plane means "unpacked run".
func newBitPlane(slots int) bitPlane {
	return make(bitPlane, (slots+63)>>6)
}

// set stages payload bit v at slot i. The slot must be clear (the planes'
// delivery discipline guarantees it: every slot is cleared before it is
// re-delivered to, and staged at most once per round).
func (b bitPlane) set(i int32, v uint64) {
	w, s := &b[int(i)>>6], uint(i)&63
	w.present |= 1 << s
	w.value |= (v & 1) << s
}

// occupied reports whether slot i holds a message.
func (b bitPlane) occupied(i int32) bool {
	return b[int(i)>>6].present>>(uint(i)&63)&1 != 0
}

// rangeMasks returns the word span [wlo, whi] of the non-empty slot range
// [lo, hi) and the masks of its slots in the first and the last word.
func rangeMasks(lo, hi int64) (wlo, whi int, first, last uint64) {
	return int(lo >> 6), int((hi - 1) >> 6), ^uint64(0) << (uint(lo) & 63), ^uint64(0) >> (63 - uint(hi-1)&63)
}

// clearBitRange empties the slot range [lo, hi), mask-aware at the boundary
// words so slots of adjacent ranges sharing a word are untouched.
func (b bitPlane) clearBitRange(lo, hi int64) {
	if lo >= hi {
		return
	}
	wlo, whi, first, last := rangeMasks(lo, hi)
	if wlo == whi {
		m := ^(first & last)
		b[wlo].present &= m
		b[wlo].value &= m
		return
	}
	b[wlo].present &= ^first
	b[wlo].value &= ^first
	clear(b[wlo+1 : whi])
	b[whi].present &= ^last
	b[whi].value &= ^last
}

// setBitRange stages payload bit v (its low bit) on every slot of [lo, hi),
// mask-aware at the boundary words.
func (b bitPlane) setBitRange(lo, hi int64, v uint64) {
	if lo >= hi {
		return
	}
	wlo, whi, first, last := rangeMasks(lo, hi)
	val := -(v & 1) // all ones when the bit is set
	if wlo == whi {
		m := first & last
		b[wlo].present |= m
		b[wlo].value |= m & val
		return
	}
	b[wlo].present |= first
	b[wlo].value |= first & val
	for w := wlo + 1; w < whi; w++ {
		b[w].present = ^uint64(0)
		b[w].value |= val
	}
	b[whi].present |= last
	b[whi].value |= last & val
}

// orBitsAt stages payload bit v (its low bit) on the slots selected by the
// low n (1..64) bits of mask, starting at global slot pos.
func (b bitPlane) orBitsAt(pos int64, mask uint64, n int, v uint64) {
	if n < 64 {
		mask &= 1<<uint(n) - 1
	}
	val := -(v & 1)
	i, s := int(pos>>6), uint(pos)&63
	lo := mask << s
	b[i].present |= lo
	b[i].value |= lo & val
	if s != 0 && int(s)+n > 64 {
		hi := mask >> (64 - s)
		b[i+1].present |= hi
		b[i+1].value |= hi & val
	}
}

// readBitsAt returns the present and value lanes of the n (1..64) slots
// starting at global slot pos, in the low bits of the results.
func (b bitPlane) readBitsAt(pos int64, n int) (present, value uint64) {
	i, s := int(pos>>6), uint(pos)&63
	w := b[i]
	present, value = w.present>>s, w.value>>s
	if s != 0 && int(s)+n > 64 {
		w = b[i+1]
		present |= w.present << (64 - s)
		value |= w.value << (64 - s)
	}
	if n < 64 {
		m := uint64(1)<<uint(n) - 1
		present &= m
		value &= m
	}
	return present, value
}

// popcountRange counts the occupied slots in [lo, hi).
func (b bitPlane) popcountRange(lo, hi int64) int {
	if lo >= hi {
		return 0
	}
	wlo, whi, first, last := rangeMasks(lo, hi)
	if wlo == whi {
		return bits.OnesCount64(b[wlo].present & first & last)
	}
	n := bits.OnesCount64(b[wlo].present & first)
	for w := wlo + 1; w < whi; w++ {
		n += bits.OnesCount64(b[w].present)
	}
	return n + bits.OnesCount64(b[whi].present&last)
}

// inboxView is the uniform handle on the inbox plane of either kind. The
// scatter phase clears through it, and the adversary boundary's supersede
// checks, late-delivery injections and stall-loss counts read and write
// through it, so both behave identically whether the run stores inboxes as
// Messages or packed bits.
type inboxView struct {
	msgs []Message // the []Message plane; nil in packed runs
	bits bitPlane  // the packed plane; nil in unpacked runs
}

// slots returns the slot range [lo, hi) of the word window [wlo, whi) of a
// Message plane, 64 slots a word, clipped to the plane.
func (iv inboxView) slots(wlo, whi int) (lo, hi int) {
	return min(wlo<<6, len(iv.msgs)), min(whi<<6, len(iv.msgs))
}

// window measures the word window [wlo, whi) in the unit the dense clear
// sweeps: words on packed planes (one memclr'd word retires 64 slots),
// slots on Message planes.
func (iv inboxView) window(wlo, whi int) int {
	if iv.bits != nil {
		return whi - wlo
	}
	lo, hi := iv.slots(wlo, whi)
	return hi - lo
}

// clearWords empties the word window [wlo, whi) — the dense clear, a
// memclr the runtime vectorizes.
func (iv inboxView) clearWords(wlo, whi int) {
	if iv.bits != nil {
		clear(iv.bits[wlo:whi])
		return
	}
	lo, hi := iv.slots(wlo, whi)
	clear(iv.msgs[lo:hi])
}

// clearSlots empties the listed slots — the sparse clear. On packed planes
// it clears present and value, keeping value ⊆ present.
func (iv inboxView) clearSlots(slots []int32) {
	if b := iv.bits; b != nil {
		for _, i := range slots {
			w, mask := &b[int(i)>>6], ^(uint64(1) << (uint(i) & 63))
			w.present &= mask
			w.value &= mask
		}
		return
	}
	for _, i := range slots {
		iv.msgs[i] = nil
	}
}

// occupied reports whether inbox slot i currently holds a message.
func (iv inboxView) occupied(i int32) bool {
	if iv.bits != nil {
		return iv.bits.occupied(i)
	}
	return iv.msgs[i] != nil
}

// inject writes a (held, canonical-wire) message into slot i. Packed planes
// store its payload bit; the 8-bit accounting happens at the caller.
func (iv inboxView) inject(i int32, m Message) {
	if iv.bits != nil {
		var b uint64
		if len(m) > 0 {
			b = uint64(m[0] & 1)
		}
		iv.bits.set(i, b)
		return
	}
	iv.msgs[i] = m
}

// occupiedInRange counts the occupied slots in [lo, hi) — word-parallel on
// packed planes.
func (iv inboxView) occupiedInRange(lo, hi int64) int {
	if iv.bits != nil {
		return iv.bits.popcountRange(lo, hi)
	}
	n := 0
	for i := lo; i < hi; i++ {
		if iv.msgs[i] != nil {
			n++
		}
	}
	return n
}
