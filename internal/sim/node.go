// Package sim implements the LOCAL and CONGEST models of distributed
// computing as defined in Section 2 of the paper: an n-node network where
// computation proceeds in synchronous rounds, each node exchanges one message
// per neighbor per round, nodes start knowing only their own identifier,
// degree and (for non-uniform algorithms) the declared network size, and —
// in the CONGEST model — messages are limited to O(log n) bits.
//
// One engine executes the node programs: a pool of workers over contiguous
// node shards, which Run drives with one worker inline on the calling
// goroutine and RunParallel with any width, for million-node simulations.
// Every width accounts rounds, message counts and message bits identically
// and enforces the CONGEST bandwidth bound, so the paper's round-complexity
// and bandwidth claims become machine-checked assertions; Execute picks the
// width by Config.Scheduler and Config.Workers.
//
// The engine keeps one flat message plane: inboxes, neighbor IDs and the
// NodeCtx.Outbox scratch are single contiguous arrays indexed by the
// graph's CSR half-edge index (see graph.Graph.CSR), so a round is a linear
// sweep over cache-resident buffers and a run allocates O(1) slices rather
// than O(n). On top of it, the engine drives its round loop off a compact
// worklist of live nodes and moves messages along one path for both plane
// kinds: the compute phase stages each message as one uint32 in a lane per
// destination shard (the sender's half-edge on Message planes, the
// destination slot and payload bit on packed ones), and one scatter
// function delivers the lanes into each shard's word window of the inbox
// plane. A late round with a small surviving fringe — the common tail of
// the shattering-style algorithms under study — therefore costs
// O(active + messages) rather than O(n + m); and message payloads can be
// carved from per-round bump arenas (NodeCtx.Uints / NodeCtx.Alloc),
// removing the last O(messages) allocation class.
package sim

import (
	"encoding/binary"
	"fmt"

	"randlocal/internal/randomness"
)

// Message is an opaque message payload. A nil Message means "send nothing on
// this port". Size accounting uses 8·len(m) bits.
type Message []byte

// BitLen returns the size of the message in bits.
func (m Message) BitLen() int { return 8 * len(m) }

// NodeCtx is the information a node holds at time zero, before any
// communication: its identifier, its degree, the declared network size
// (non-uniform algorithms receive n as input, Definition 2.1), and its
// randomness, if the configured source grants it any.
//
// Layout: a NodeCtx is 128 bytes, two cache lines, and the fields the
// per-round accessors read (Degree, base, Rand, the wire pointer, packed)
// lie in the first, so a node-step that reads its inbox and stages its
// outbox through the bit accessors touches one line of its context. The
// engine keeps the contexts in one slice, line-aligned whenever the slice
// is (as the runtime's large allocations are).
type NodeCtx struct {
	// Degree is the number of incident edges (= ports).
	Degree int
	// base is off[v], the node's first slot in the flat half-edge planes;
	// its ports are the slots [base, base+Degree).
	base int64
	// Rand is this node's accounted private random stream, or nil when the
	// randomness source grants this node no private bits.
	Rand *randomness.Stream
	// w is the wiring of the worker that runs this node: its payload arena
	// and the planes the accessors read and write. The engine points every
	// context of a shard at its worker's wire, so rewiring a context is one
	// pointer store. nil (a hand-built NodeCtx outside an engine) makes
	// Uints/Alloc fall back to plain heap allocation.
	w *wire
	// packed is set when the engine runs this node over packed bit planes
	// (every program declared PayloadBits() <= 1; see PayloadBitsDeclarer):
	// the bit accessors below then read and write the wire's bit planes
	// word-at-a-time instead of going through Outbox and the inbox plane.
	packed bool
	// Index is the dense engine-internal node index in [0, n). Node
	// programs must treat it as opaque; algorithmic decisions must use ID.
	Index int
	// ID is the unique Θ(log n)-bit identifier.
	ID uint64
	// N is the declared number of nodes handed to non-uniform algorithms.
	// It may exceed the true size — that is exactly the "lying about n"
	// device of Theorem 4.3.
	N int
	// NeighborIDs lists the identifier behind each port when the engine is
	// configured with KT1 knowledge (the default); nil under KT0.
	NeighborIDs []uint64
	// Outbox is an engine-owned scratch slice of length Degree that the
	// program may fill and return from Round instead of allocating a fresh
	// outbox every round. The engine consumes the returned outbox before
	// the node's next Round call, but never clears it: a program that uses
	// Outbox must set (or nil) every port it returns, every round, and
	// must not mutate a payload after handing it to the engine. All nodes'
	// Outbox windows are subslices of one flat cache-resident buffer, the
	// out plane delivery reads from. A program may instead return a slice
	// of its own; its entries are then copied into the Outbox window, so
	// the window holds what was sent until the next Round call either way.
	Outbox []Message
	// Shared is non-nil when running under the shared-randomness model and
	// exposes the public seed (and its deterministic expansions).
	Shared *randomness.Shared
	_      [8]byte // pads the struct to two whole cache lines
}

// wire is one worker's side of the NodeCtx accessors: everything a node's
// Uints/Alloc and bit accessors reach beyond the context itself. Every
// worker has one, shared by the contexts of its shard, so it stays hot in
// the worker's cache.
type wire struct {
	// arena is the worker's per-round payload arena; it has a single
	// writer, the worker.
	arena *arena
	// in is the packed inbox plane (read side, shared by all workers) and
	// out the worker's out plane (write side, private per worker); both nil
	// on unpacked runs.
	in, out bitPlane
	// inbox is the unpacked inbox plane, from which the unpacked bit
	// accessors read a node's window [base, base+Degree) — the slice Round
	// receives. nil on packed runs.
	inbox []Message
}

// Uints encodes xs as a single varint payload carved from the engine's
// per-round message arena — the allocation-free counterpart of the
// package-level Uints. The payload is valid until the receiver's Round call
// returns; see the retention rule on NodeProgram. A payload carved during
// Init has round 0's lifetime: it may be returned from Round(0) and is read
// safely by receivers in round 1.
func (c *NodeCtx) Uints(xs ...uint64) Message {
	if c.w == nil || len(xs) == 0 {
		// Uints(nil...) is nil — "send nothing" — and the arena must agree,
		// not hand out a non-nil empty payload the engine would deliver.
		return Uints(xs...)
	}
	return c.w.arena.uints(xs)
}

// Alloc returns a zeroed n-byte payload carved from the engine's per-round
// message arena, for programs that assemble payloads with AppendUint-style
// encoders or raw bytes. The same lifetime rule as Uints applies.
func (c *NodeCtx) Alloc(n int) Message {
	if c.w == nil {
		return make(Message, n)
	}
	return c.w.arena.alloc(n)
}

// Broadcast fills the engine-owned Outbox window with msg on every port and
// returns it, ready to be returned from Round — the allocation-free
// counterpart of the `out := make([]Message, Degree)` + fill loop that every
// flooding program used to carry. A nil msg yields an all-silent outbox
// (every slot nilled), which is still a valid Outbox return: each port is
// explicitly set each round, as the Outbox contract requires.
func (c *NodeCtx) Broadcast(msg Message) []Message {
	out := c.Outbox
	for p := range out {
		out[p] = msg
	}
	return out
}

// BroadcastActive fills the Outbox window with msg on every port whose entry
// in active is true and nil on the rest, and returns it. active must have
// length Degree; it is the "still-live neighbors" mask that phase-based
// symmetry-breaking programs (Luby, trial-coloring) maintain per port.
func (c *NodeCtx) BroadcastActive(msg Message, active []bool) []Message {
	out := c.Outbox
	for p := range out {
		if active[p] {
			out[p] = msg
		} else {
			out[p] = nil
		}
	}
	return out
}

// bitWire holds the two canonical 1-bit wire messages. They are what the
// unpacked bit accessors put on the wire and what the engines materialize
// when a packed message must exist as a Message (a delayed delivery held by
// the adversary). Each is one byte — the varint encodings of 0 and 1 — so a
// 1-bit payload accounts as 8 bits in both plane representations and the
// packed Result is byte-identical to the unpacked one.
var bitWire = [2]Message{{0}, {1}}

// PayloadBitsDeclarer is the optional NodeProgram capability that declares a
// maximum payload width in bits: a program implementing it promises that
// every message it ever sends carries at most PayloadBits() bits of payload
// (encoded on the wire as the canonical 1-byte varint — use the BroadcastBit
// family, which guarantees it). A program that does not implement the
// interface defaults to full-width messages.
//
// When every program of a run declares a width <= 1, the Run and RunParallel
// engines store the message planes as packed []uint64 bitmaps — 64 half-edge
// lanes per word — and delivery becomes word-parallel (see bitPlane). The
// representation is invisible to the model: rounds, message and bit counts,
// ActivePerRound and adversary injections are byte-identical to the unpacked
// run, which the equivalence suite asserts. Config.Unpacked opts a run out
// (A/B lever).
type PayloadBitsDeclarer interface {
	PayloadBits() int
}

// BitWords returns the number of 64-bit words the bit accessors use for this
// node's ports: ⌈Degree/64⌉. Port p lives at bit p&63 of word p>>6.
func (c *NodeCtx) BitWords() int { return (c.Degree + 63) >> 6 }

// BroadcastBit stages payload bit b (its low bit) on every port and returns
// the outbox to hand back from Round. In packed mode it sets whole words of
// the engine's out plane and returns nil (the engine harvests the plane); in
// unpacked mode it fills Outbox with the canonical 1-byte wire message. Both
// representations account identically: one 8-bit message per port.
func (c *NodeCtx) BroadcastBit(b uint64) []Message {
	if c.packed {
		c.w.out.setBitRange(c.base, c.base+int64(c.Degree), b)
		return nil
	}
	msg := bitWire[b&1]
	out := c.Outbox
	for p := range out {
		out[p] = msg
	}
	return out
}

// BroadcastBitMask stages payload bit b on every port whose bit is set in
// mask (the BitWords()-word port bitmap the program maintains — the packed
// counterpart of BroadcastActive's []bool) and nothing on the rest, and
// returns the outbox to hand back from Round. Mask bits at or above Degree
// are ignored.
func (c *NodeCtx) BroadcastBitMask(b uint64, mask []uint64) []Message {
	if c.packed {
		out := c.w.out
		for j := 0; j < c.BitWords(); j++ {
			m := mask[j]
			if m == 0 {
				continue
			}
			out.orBitsAt(c.base+int64(j)<<6, m, min(c.Degree-j<<6, 64), b)
		}
		return nil
	}
	msg := bitWire[b&1]
	out := c.Outbox
	for p := range out {
		if mask[p>>6]>>(uint(p)&63)&1 != 0 {
			out[p] = msg
		} else {
			out[p] = nil
		}
	}
	return out
}

// InBitWord returns this round's received bits for ports [64j, 64j+64): bit k
// of present is set when port 64j+k received a message, and the matching bit
// of value carries its payload (value ⊆ present). It is the word-at-a-time
// read path of 1-bit programs — in packed mode one shift-combined load of
// interleaved words from the packed inbox plane, in unpacked mode assembled
// from the node's window of the inbox plane — and must be called from
// inside Round, while the inbox holds this round's messages.
func (c *NodeCtx) InBitWord(j int) (present, value uint64) {
	n := c.Degree - j<<6
	if n <= 0 {
		return 0, 0
	}
	if n > 64 {
		n = 64
	}
	pos := c.base + int64(j)<<6
	if c.packed {
		return c.w.in.readBitsAt(pos, n)
	}
	for k, m := range c.w.inbox[pos : pos+int64(n)] {
		if m != nil {
			present |= 1 << uint(k)
			if len(m) > 0 && m[0]&1 != 0 {
				value |= 1 << uint(k)
			}
		}
	}
	return present, value
}

// InBit returns the payload bit received on port p this round and whether a
// message arrived there — the single-port convenience over InBitWord.
func (c *NodeCtx) InBit(p int) (bit uint64, ok bool) {
	i := c.base + int64(p)
	if c.packed {
		w, s := c.w.in[i>>6], uint(i)&63
		return w.value >> s & 1, w.present>>s&1 != 0
	}
	m := c.w.inbox[i]
	if m == nil {
		return 0, false
	}
	if len(m) > 0 {
		bit = uint64(m[0] & 1)
	}
	return bit, true
}

// NodeProgram is a state machine run at one node. Init is called once before
// round 0. In every round the engine calls Round with the messages received
// on each port (inbox[p] is nil when the neighbor on port p sent nothing);
// the program returns the messages to send (outbox[p], nil allowed, and a
// short outbox is treated as nil-padded) and whether it has terminated.
// After a program reports done, Round is never called again and neighbors
// receive nothing from it. Output is read once the whole network has halted.
//
// Retention rule: an inbox payload (or any subslice of it) is valid only
// until the Round call it arrived in returns. Senders may carve payloads
// from the engine's per-round arena (NodeCtx.Uints, NodeCtx.Alloc), whose
// backing memory is recycled two rounds after the carve — exactly one round
// after delivery. A program that needs a received value beyond its round
// must copy the decoded value, never keep the Message.
type NodeProgram[T any] interface {
	Init(ctx *NodeCtx)
	Round(r int, inbox []Message) (outbox []Message, done bool)
	Output() T
}

// --- Message payload codec -------------------------------------------------
//
// Algorithms in this repository encode message fields with unsigned varints,
// so a field of value x costs Θ(log x) bits — which keeps honest CONGEST
// accounting: messages carrying O(1) identifiers and counters of magnitude
// poly(n) measure at O(log n) bits.

// AppendUint appends a varint-encoded unsigned integer to the payload.
func AppendUint(m Message, x uint64) Message {
	return binary.AppendUvarint(m, x)
}

// Uints encodes a sequence of unsigned integers as a single payload.
func Uints(xs ...uint64) Message {
	var m Message
	for _, x := range xs {
		m = AppendUint(m, x)
	}
	return m
}

// ReadUint decodes one varint from the front of the payload, returning the
// value and the remainder. The second return is nil and ok=false on
// malformed input.
func ReadUint(m Message) (x uint64, rest Message, ok bool) {
	x, n := binary.Uvarint(m)
	if n <= 0 {
		return 0, nil, false
	}
	return x, m[n:], true
}

// DecodeUints decodes exactly k varints, returning ok=false on malformed or
// short input.
func DecodeUints(m Message, k int) ([]uint64, bool) {
	out := make([]uint64, 0, k)
	for i := 0; i < k; i++ {
		x, rest, ok := ReadUint(m)
		if !ok {
			return nil, false
		}
		out = append(out, x)
		m = rest
	}
	return out, true
}

// DecodeUintsInto decodes exactly len(dst) varints into dst, returning false
// on malformed or short input (dst's contents are unspecified on failure).
// It is the allocation-free counterpart of DecodeUints: a program that
// decodes fixed-shape messages every round keeps a scratch array in its
// state ([2]uint64 or similar) and decodes into it, so the steady-state
// round loop allocates nothing.
func DecodeUintsInto(m Message, dst []uint64) bool {
	for i := range dst {
		x, rest, ok := ReadUint(m)
		if !ok {
			return false
		}
		dst[i] = x
		m = rest
	}
	return true
}

// DecodeAllUints decodes varints until the payload is exhausted.
func DecodeAllUints(m Message) ([]uint64, bool) {
	var out []uint64
	for len(m) > 0 {
		x, rest, ok := ReadUint(m)
		if !ok {
			return nil, false
		}
		out = append(out, x)
		m = rest
	}
	return out, true
}

// BandwidthError reports a CONGEST bandwidth violation: some node attempted
// to send a message larger than the configured bound. The engine surfaces it
// rather than silently truncating — a violation means the algorithm is not a
// CONGEST algorithm.
type BandwidthError struct {
	Node  int
	Round int
	Bits  int
	Limit int
}

func (e *BandwidthError) Error() string {
	return fmt.Sprintf("sim: node %d exceeded CONGEST bandwidth in round %d: %d bits > limit %d", e.Node, e.Round, e.Bits, e.Limit)
}

// StuckError reports that the round cap was reached before all nodes halted.
type StuckError struct {
	MaxRounds int
	Running   int
}

func (e *StuckError) Error() string {
	return fmt.Sprintf("sim: %d nodes still running after the %d-round cap", e.Running, e.MaxRounds)
}
