package sim

import "encoding/binary"

// arena is a double-buffered per-round bump allocator for message payloads.
// Carves from one round land in one flat byte buffer; the engine rotates the
// arena once per round — except before round 0, so Init-time carves share
// round 0's buffer — which resets the buffer that served the round before
// last. That is the earliest safe moment to recycle: a payload carved in
// round r is delivered at round r+1 and may be read throughout round r+1's
// compute phase, so it must survive exactly two rotations.
//
// The lifetime contract this imposes on node programs is documented on
// NodeProgram: inbox payloads (and subslices of them) are valid only for the
// duration of the Round call they arrive in.
//
// Each arena has a single owner goroutine (one pool worker); readers of
// carved payloads
// synchronize through the engines' existing delivery barriers, never through
// the arena itself.
type arena struct {
	bufs [2][]byte
	flip int
}

// rotate advances the arena to the next round: subsequent carves come from
// the buffer that served the round before last, reset to length zero. Its
// capacity is retained, so after a few rounds at a steady message volume the
// arena allocates nothing at all.
func (a *arena) rotate() {
	a.flip ^= 1
	a.bufs[a.flip] = a.bufs[a.flip][:0]
}

// alloc carves a zeroed n-byte payload from the current round's buffer.
func (a *arena) alloc(n int) Message {
	if n == 0 {
		// Always the canonical non-nil empty payload (matching the arena-less
		// make fallback), never nil: nil means "send nothing", and whether a
		// zero-byte message is sent must not depend on the arena's state.
		return Message{}
	}
	b := a.bufs[a.flip]
	if cap(b)-len(b) < n {
		// Grow by replacing the chunk. The old chunk is not copied: payloads
		// already carved from it keep it alive until their round ends, and
		// only fresh carves come from the new one.
		b = make([]byte, 0, 2*cap(b)+n)
	}
	off := len(b)
	b = b[:off+n]
	a.bufs[a.flip] = b
	m := b[off : off+n : off+n]
	clear(m)
	return m
}

// uints encodes xs as consecutive varints carved from the current round's
// buffer — the arena-backed equivalent of the package-level Uints. Reserving
// the worst-case encoding up front keeps growth on alloc's replace-the-chunk
// path: AppendUvarint never reallocates (which would memcpy the whole
// chunk), and payloads already carved keep the old chunk alive.
func (a *arena) uints(xs []uint64) Message {
	b := a.bufs[a.flip]
	if need := binary.MaxVarintLen64 * len(xs); cap(b)-len(b) < need {
		b = make([]byte, 0, 2*cap(b)+need)
	}
	off := len(b)
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	a.bufs[a.flip] = b
	return b[off:len(b):len(b)]
}
