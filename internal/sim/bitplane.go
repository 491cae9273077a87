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
// the plane is bit i&63 of word i>>6. present marks slots holding a message
// (the analogue of a non-nil Message) and value carries the payload bit.
// Invariant: value ⊆ present — every clear clears both words, so a delivered
// 0-bit is distinguishable from silence and stale value bits cannot leak into
// a later OR-delivery.
//
// The pointer is what the engine shares with NodeCtx, and a wired *bitPlane
// stays valid for the whole run.
type bitPlane struct {
	present []uint64
	value   []uint64
}

// newBitPlane returns a zeroed plane covering the given number of slots.
func newBitPlane(slots int) *bitPlane {
	w := (slots + 63) >> 6
	return &bitPlane{present: make([]uint64, w), value: make([]uint64, w)}
}

// set stages payload bit v at slot i. The slot must be clear (the planes'
// delivery discipline guarantees it: every slot is cleared before it is
// re-delivered to, and staged at most once per round).
func (b *bitPlane) set(i int32, v uint64) {
	w, s := int(i)>>6, uint(i)&63
	b.present[w] |= 1 << s
	b.value[w] |= (v & 1) << s
}

// occupied reports whether slot i holds a message.
func (b *bitPlane) occupied(i int32) bool {
	return b.present[int(i)>>6]>>(uint(i)&63)&1 != 0
}

// clearBitRange empties the slot range [lo, hi), mask-aware at the boundary
// words so slots of adjacent ranges sharing a word are untouched.
func (b *bitPlane) clearBitRange(lo, hi int64) {
	if lo >= hi {
		return
	}
	wlo, whi := int(lo>>6), int((hi-1)>>6)
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if wlo == whi {
		m := ^(first & last)
		b.present[wlo] &= m
		b.value[wlo] &= m
		return
	}
	b.present[wlo] &= ^first
	b.value[wlo] &= ^first
	clear(b.present[wlo+1 : whi])
	clear(b.value[wlo+1 : whi])
	b.present[whi] &= ^last
	b.value[whi] &= ^last
}

// setBitRange fills the slot range [lo, hi) of one lane, mask-aware at the
// boundary words.
func setBitRange(dst []uint64, lo, hi int64) {
	if lo >= hi {
		return
	}
	wlo, whi := int(lo>>6), int((hi-1)>>6)
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if wlo == whi {
		dst[wlo] |= first & last
		return
	}
	dst[wlo] |= first
	for w := wlo + 1; w < whi; w++ {
		dst[w] = ^uint64(0)
	}
	dst[whi] |= last
}

// orBitsAt ORs the low n (1..64) bits of w into dst starting at global bit
// position pos.
func orBitsAt(dst []uint64, pos int64, w uint64, n int) {
	if n < 64 {
		w &= 1<<uint(n) - 1
	}
	i, s := int(pos>>6), uint(pos)&63
	dst[i] |= w << s
	if s != 0 && int(s)+n > 64 {
		dst[i+1] |= w >> (64 - s)
	}
}

// readBitsAt returns the n (1..64) bits of src starting at global position
// pos, in the low bits of the result.
func readBitsAt(src []uint64, pos int64, n int) uint64 {
	i, s := int(pos>>6), uint(pos)&63
	w := src[i] >> s
	if s != 0 && int(s)+n > 64 {
		w |= src[i+1] << (64 - s)
	}
	if n < 64 {
		w &= 1<<uint(n) - 1
	}
	return w
}

// popcountRange counts the set bits of src in the slot range [lo, hi).
func popcountRange(src []uint64, lo, hi int64) int {
	if lo >= hi {
		return 0
	}
	wlo, whi := int(lo>>6), int((hi-1)>>6)
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if wlo == whi {
		return bits.OnesCount64(src[wlo] & first & last)
	}
	n := bits.OnesCount64(src[wlo] & first)
	for w := wlo + 1; w < whi; w++ {
		n += bits.OnesCount64(src[w])
	}
	return n + bits.OnesCount64(src[whi]&last)
}

// inboxView is the uniform handle on the inbox plane of either kind. The
// scatter phase clears through it, and the adversary boundary's supersede
// checks, late-delivery injections and stall-loss counts read and write
// through it, so both behave identically whether the run stores inboxes as
// Messages or packed bits.
type inboxView struct {
	msgs []Message // the []Message plane; nil in packed runs
	bits *bitPlane // the packed plane; nil in unpacked runs
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
		clear(iv.bits.present[wlo:whi])
		clear(iv.bits.value[wlo:whi])
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
			w, mask := int(i)>>6, ^(uint64(1) << (uint(i) & 63))
			b.present[w] &= mask
			b.value[w] &= mask
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
		return popcountRange(iv.bits.present, lo, hi)
	}
	n := 0
	for i := lo; i < hi; i++ {
		if iv.msgs[i] != nil {
			n++
		}
	}
	return n
}
