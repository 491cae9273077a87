package randomness

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"randlocal/internal/prng"
)

// Ledger accumulates randomness-consumption statistics for one experiment
// run. TrueBits counts bits of genuine randomness (seed material and private
// coin flips); DerivedBits counts pseudo-random bits expanded
// deterministically from seeds (k-wise evaluations, shared-seed reads).
// The distinction is the whole point of Section 3 of the paper: an algorithm
// may *read* poly(n) bits while only poly(log n) of them are true
// randomness.
//
// The totals are exact at every moment: each draw call on a Stream bills all
// of its bits with one atomic add, so the methods are safe for concurrent
// use (RunParallel's workers draw coins at the same time) and a Ledger need
// not know which streams bill to it.
type Ledger struct {
	trueBits    atomic.Int64
	derivedBits atomic.Int64
}

// TrueBits returns the number of true random bits drawn so far.
func (l *Ledger) TrueBits() int64 { return l.trueBits.Load() }

// DerivedBits returns the number of deterministically derived bits read.
func (l *Ledger) DerivedBits() int64 { return l.derivedBits.Load() }

func (l *Ledger) addTrue(n int64) {
	if l != nil {
		l.trueBits.Add(n)
	}
}

func (l *Ledger) addDerived(n int64) {
	if l != nil {
		l.derivedBits.Add(n)
	}
}

// String summarizes the ledger.
func (l *Ledger) String() string {
	return fmt.Sprintf("ledger{true=%d derived=%d}", l.TrueBits(), l.DerivedBits())
}

// ErrExhausted is the panic value used when a budgeted stream runs out of
// bits; algorithms running under the sparse model (one bit per holder) hit
// this if they try to cheat.
var ErrExhausted = fmt.Errorf("randomness: stream exhausted its bit budget")

// Stream is a sequence of accounted random bits for one node: its randomness
// tape. Bit i of the tape is bit i%64 of the i/64-th word of the underlying
// generator — a private SplitMix64 under Full and Sparse, the packed public
// seed under Shared — and draws consume the tape in order, so a draw of k
// bits costs one buffered word (or two, across a word boundary) however it
// is split into calls. Every draw call bills its bits to the source's Ledger
// with one atomic add. A Stream may carry a hard budget (Sparse holders get
// budget 1, Shared streams the seed length).
//
// Streams are carved from a slab owned by their source, so handing one to
// each node of a large network allocates nothing per node. A Stream is not
// safe for concurrent use; distinct Streams are.
type Stream struct {
	rng prng.SplitMix64 // Full/Sparse generator
	buf uint64          // unread bits of the current word, next bit lowest; zero above have
	// shared is non-nil for a Shared stream, which replays the seed words
	// from word index pos instead of drawing from rng, and bills its draws
	// to DerivedBits (the seed's true bits were billed at construction).
	shared *Shared
	pos    int
	ledger *Ledger
	budget int64 // remaining bits; negative means unlimited
	drawn  int64
	have   uint8 // number of unread bits in buf
}

// Drawn returns the number of bits this stream has produced.
func (s *Stream) Drawn() int64 { return s.drawn }

// Remaining returns the remaining budget, or -1 when unlimited.
func (s *Stream) Remaining() int64 {
	if s.budget < 0 {
		return -1
	}
	return s.budget
}

// refill loads the next tape word into the empty buffer. Callers guarantee
// that a Shared stream's seed holds the word (its budget covers the bits).
func (s *Stream) refill() {
	if s.shared != nil {
		s.buf = s.shared.seed[s.pos]
		s.pos++
	} else {
		s.buf = s.rng.Uint64()
	}
	s.have = 64
}

// take removes the next k ≤ 64 tape bits, first bit lowest, crossing at most
// one word boundary. It neither checks the budget nor bills.
func (s *Stream) take(k uint) uint64 {
	if k <= uint(s.have) {
		v := s.buf & (1<<k - 1)
		s.buf >>= k
		s.have -= uint8(k)
		return v
	}
	lo, n := s.buf, uint(s.have)
	s.refill()
	rest := k - n
	v := lo | (s.buf&(1<<rest-1))<<n
	s.buf >>= rest
	s.have -= uint8(rest)
	return v
}

// spend records n drawn bits: it lowers the budget (the caller has checked
// it covers n), counts them and bills them to the ledger in one add.
func (s *Stream) spend(n int64) {
	if s.budget > 0 {
		s.budget -= n
	}
	s.drawn += n
	if s.shared != nil {
		s.ledger.addDerived(n)
	} else {
		s.ledger.addTrue(n)
	}
}

// exhaust spends whatever budget remains and panics with ErrExhausted: a
// draw that wants more bits than the budget bills exactly the bits that were
// left, as drawing them one at a time until the budget ran out would.
func (s *Stream) exhaust() {
	s.spend(s.budget)
	panic(ErrExhausted)
}

// Bit returns the next random bit (0 or 1). It panics with ErrExhausted when
// a budgeted stream is empty — by design, so model violations fail loudly.
func (s *Stream) Bit() uint64 {
	if s.budget == 0 {
		panic(ErrExhausted)
	}
	s.spend(1)
	if s.have == 0 {
		s.refill()
	}
	b := s.buf & 1
	s.buf >>= 1
	s.have--
	return b
}

// Bits returns the next k bits packed into the low bits of a uint64
// (first-drawn bit is the least significant). It panics for k outside
// [0,64], and with ErrExhausted when fewer than k bits of budget remain,
// after billing the ones that did.
func (s *Stream) Bits(k int) uint64 {
	if uint(k) > 64 {
		panic(fmt.Sprintf("randomness: Bits(%d) out of range", k))
	}
	if k == 0 {
		return 0
	}
	if s.budget >= 0 && s.budget < int64(k) {
		s.take(uint(s.budget))
		s.exhaust()
	}
	s.spend(int64(k))
	return s.take(uint(k))
}

// Intn returns a uniform integer in [0, n) by rejection sampling on
// ceil(log2 n)-bit draws, accounting every consumed bit. It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("randomness: Intn with non-positive n")
	}
	if n == 1 {
		return 0
	}
	k := bits.Len(uint(n - 1))
	for {
		v := int(s.Bits(k))
		if v < n {
			return v
		}
	}
}

// Bernoulli returns true with probability p, consuming bits one at a time by
// comparing against the binary expansion of p (expected two bits per call,
// at most 53). Out-of-range p is clamped to [0, 1].
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	x := p
	for i := 0; i < 53; i++ {
		x *= 2
		var pBit uint64
		if x >= 1 {
			pBit = 1
			x -= 1
		}
		rBit := s.Bit()
		if rBit < pBit {
			return true
		}
		if rBit > pBit {
			return false
		}
	}
	return false
}

// Geometric samples the geometric distribution Pr[X = k] = 2^-k (k >= 1):
// flip fair coins until the first tail; the index of that flip is the value.
// This is precisely the radius distribution of the Elkin–Neiman construction
// as the paper states it. If maxFlips flips all come up heads, it returns
// (maxFlips, false) — the w.h.p. cap of 10·log n that Lemma 3.3 budgets for.
// Heads are 1 bits; the flips are counted a buffered word at a time.
func (s *Stream) Geometric(maxFlips int) (value int, ok bool) {
	if maxFlips <= 0 {
		return maxFlips, false
	}
	// A budget below maxFlips limits how far the tape may be read: a run of
	// heads that outlasts it exhausts the stream.
	lim := uint(maxFlips)
	short := s.budget >= 0 && s.budget < int64(maxFlips)
	if short {
		lim = uint(s.budget)
	}
	var n uint // flips read so far, all heads
	for n < lim {
		if s.have == 0 {
			s.refill()
		}
		heads := uint(bits.TrailingZeros64(^s.buf)) // ≤ have: buf is zero above have
		if room := lim - n; heads >= room {
			s.take(room)
			n = lim
			break
		}
		if heads < uint(s.have) {
			s.take(heads + 1)
			s.spend(int64(n + heads + 1))
			return int(n + heads + 1), true
		}
		s.take(heads)
		n += heads
	}
	if short {
		s.exhaust()
	}
	s.spend(int64(n))
	return maxFlips, false
}

// streamChunk is the number of Streams a source carves from one allocation:
// 512 of 64 bytes fill one 32 KiB block, one cache line per Stream.
const streamChunk = 512

// streamSlab hands out Streams carved from chunked backing arrays, so giving
// every node of a network its stream costs one allocation per streamChunk
// nodes. It is safe for concurrent use.
type streamSlab struct {
	mu   sync.Mutex
	free []Stream
}

// carve stores s in the next free slot and returns the slot.
func (sl *streamSlab) carve(s Stream) *Stream {
	sl.mu.Lock()
	if len(sl.free) == 0 {
		sl.free = make([]Stream, streamChunk)
	}
	p := &sl.free[0]
	sl.free = sl.free[1:]
	sl.mu.Unlock()
	*p = s
	return p
}
