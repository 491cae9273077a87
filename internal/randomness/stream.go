package randomness

import (
	"fmt"
	"sync/atomic"
)

// Ledger accumulates randomness-consumption statistics for one experiment
// run. TrueBits counts bits of genuine randomness (seed material and private
// coin flips); DerivedBits counts pseudo-random bits expanded
// deterministically from seeds (k-wise evaluations, shared-seed reads).
// The distinction is the whole point of Section 3 of the paper: an algorithm
// may *read* poly(n) bits while only poly(log n) of them are true
// randomness. Methods are safe for concurrent use (RunParallel's workers
// draw coins at the same time).
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

// Stream is a sequence of accounted random bits for one node. Bits are
// produced lazily by the underlying source; every draw is recorded in the
// ledger. A Stream may carry a hard budget (Sparse holders get budget 1).
type Stream struct {
	next    func() uint64 // returns the next bit in the low bit
	ledger  *Ledger
	derived bool  // derived streams bill to DerivedBits
	budget  int64 // remaining bits; negative means unlimited
	drawn   int64
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

// Bit returns the next random bit (0 or 1). It panics with ErrExhausted when
// a budgeted stream is empty — by design, so model violations fail loudly.
func (s *Stream) Bit() uint64 {
	if s.budget == 0 {
		panic(ErrExhausted)
	}
	if s.budget > 0 {
		s.budget--
	}
	s.drawn++
	if s.derived {
		s.ledger.addDerived(1)
	} else {
		s.ledger.addTrue(1)
	}
	return s.next() & 1
}

// Bits returns the next k bits packed into the low bits of a uint64
// (first-drawn bit is the least significant). It panics for k outside [0,64].
func (s *Stream) Bits(k int) uint64 {
	if k < 0 || k > 64 {
		panic(fmt.Sprintf("randomness: Bits(%d) out of range", k))
	}
	var v uint64
	for i := 0; i < k; i++ {
		v |= s.Bit() << uint(i)
	}
	return v
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
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for {
		v := int(s.Bits(bits))
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
func (s *Stream) Geometric(maxFlips int) (value int, ok bool) {
	for i := 1; i <= maxFlips; i++ {
		if s.Bit() == 0 {
			return i, true
		}
	}
	return maxFlips, false
}
