package randomness

import (
	"fmt"

	"randlocal/internal/prng"
)

// Source hands out per-node randomness streams under one of the paper's
// randomness regimes. The three concrete sources mirror Section 3's three
// formalizations: Full (the standard model: unbounded independent private
// bits), Shared (only b bits of global shared randomness, Section 3.2), and
// Sparse (one private bit at selected holder nodes only, Section 3.1).
type Source interface {
	// Has reports whether node v holds any randomness under this source.
	Has(v int) bool
	// Stream returns the accounted bit stream of node v. It panics if
	// !Has(v): drawing randomness where the model provides none is a bug in
	// the algorithm under test and must fail loudly.
	Stream(v int) *Stream
	// SeedBits returns the total true randomness in the network under this
	// source, or -1 when it is unbounded (the Full model).
	SeedBits() int
	// Ledger returns the consumption ledger shared by all streams.
	Ledger() *Ledger
}

// Full is the standard randomized-LOCAL source: every node owns an unbounded
// stream of independent private bits, derived by splitting one master seed.
type Full struct {
	master uint64
	ledger Ledger
	// streams are created on demand from slab; each node uses an
	// independent SplitMix64 stream keyed by (master, node).
	slab streamSlab
}

// NewFull returns a Full source with the given master seed.
func NewFull(masterSeed uint64) *Full { return &Full{master: masterSeed} }

// Has reports true for every node.
func (f *Full) Has(int) bool { return true }

// SeedBits returns -1: the model grants unbounded randomness.
func (f *Full) SeedBits() int { return -1 }

// Ledger returns the shared consumption ledger.
func (f *Full) Ledger() *Ledger { return &f.ledger }

// Stream returns node v's private stream. Calling Stream twice for the same
// node returns streams with identical contents (the node's randomness tape
// is fixed up front, as in the usual definition of a randomized algorithm);
// accounting still records every read.
func (f *Full) Stream(v int) *Stream {
	return f.slab.carve(Stream{
		rng:    *prng.New(prng.Hash64(f.master ^ uint64(v)*0x9E3779B97F4A7C15)),
		budget: -1,
		ledger: &f.ledger,
	})
}

// Shared is the shared-randomness model of Section 3.2: the entire network
// holds one public seed of SeedBits() true random bits and nothing else.
// Every node may read the same seed bits (reads are billed as derived bits
// after the first touch of each position — the randomness exists once, not
// per node) and may deterministically expand them, e.g. into a k-wise family
// via KWiseFamily or a small-bias space via EpsBiasSpace.
type Shared struct {
	seed   []uint64 // packed seed bits
	nbits  int
	ledger Ledger
	slab   streamSlab
}

// NewShared draws a shared seed of nbits true random bits.
func NewShared(nbits int, rng *prng.SplitMix64) *Shared {
	if nbits < 0 {
		panic("randomness: negative shared seed size")
	}
	words := (nbits + 63) / 64
	seed := make([]uint64, words)
	for i := range seed {
		seed[i] = rng.Uint64()
	}
	s := &Shared{seed: seed, nbits: nbits}
	s.ledger.addTrue(int64(nbits))
	return s
}

// Has reports true: every node can read the public seed.
func (s *Shared) Has(int) bool { return true }

// SeedBits returns the size of the public seed.
func (s *Shared) SeedBits() int { return s.nbits }

// Ledger returns the consumption ledger. The seed's true bits are recorded
// at construction time; node reads bill as derived bits.
func (s *Shared) Ledger() *Ledger { return &s.ledger }

// SeedBit returns seed bit i (0-indexed). It panics beyond the seed length:
// the model has exactly nbits bits of randomness and no more.
func (s *Shared) SeedBit(i int) uint64 {
	if i < 0 || i >= s.nbits {
		panic(ErrExhausted)
	}
	return (s.seed[i/64] >> uint(i%64)) & 1
}

// SeedWord returns up to 64 consecutive seed bits starting at position off.
// It panics if [off, off+k) exceeds the seed.
func (s *Shared) SeedWord(off, k int) uint64 {
	if k < 0 || k > 64 {
		panic(fmt.Sprintf("randomness: SeedWord width %d", k))
	}
	if k == 0 {
		return 0
	}
	if off < 0 || off+k > s.nbits {
		panic(ErrExhausted)
	}
	w, b := off/64, uint(off%64)
	v := s.seed[w] >> b
	if b+uint(k) > 64 {
		v |= s.seed[w+1] << (64 - b)
	}
	return v & (1<<uint(k) - 1)
}

// Stream returns node v's view of the seed: a budgeted stream that replays
// the public seed bits in order. All nodes see identical bits — that is the
// defining property of shared randomness.
func (s *Shared) Stream(v int) *Stream {
	return s.slab.carve(Stream{
		shared:  s,
		budget:  int64(s.nbits),
		ledger:  &s.ledger,
		derived: true, // the true bits were billed once at construction
	})
}

// KWiseFamily deterministically expands the shared seed into a k-wise
// independent family over GF(2^m), consuming k·m seed bits starting at
// offset off. It returns the family and the next free offset.
func (s *Shared) KWiseFamily(k int, m uint, off int) (*KWise, int, error) {
	need := k * int(m)
	if off < 0 || off+need > s.nbits {
		return nil, off, fmt.Errorf("randomness: k-wise family needs %d seed bits at offset %d, seed has %d", need, off, s.nbits)
	}
	coeffs := make([]uint64, k)
	for i := range coeffs {
		coeffs[i] = s.SeedWord(off+i*int(m), int(m))
	}
	fam, err := NewKWiseFromSeed(m, coeffs)
	if err != nil {
		return nil, off, err
	}
	return fam, off + need, nil
}

// EpsBiasSpace deterministically expands 2·m seed bits starting at offset
// off into an AGHP small-bias generator. It returns the generator and the
// next free offset.
func (s *Shared) EpsBiasSpace(m uint, off int) (*EpsBias, int, error) {
	need := 2 * int(m)
	if off < 0 || off+need > s.nbits {
		return nil, off, fmt.Errorf("randomness: eps-bias space needs %d seed bits at offset %d, seed has %d", need, off, s.nbits)
	}
	x := s.SeedWord(off, int(m))
	y := s.SeedWord(off+int(m), int(m))
	gen, err := NewEpsBiasFromSeed(m, x, y)
	if err != nil {
		return nil, off, err
	}
	return gen, off + need, nil
}

// Sparse is the model of Theorems 3.1/3.7: a subset of holder nodes each own
// exactly one independent private random bit; every other node owns nothing.
// Holder streams carry a hard budget of bitsPerHolder (1 in the theorem
// statements; the package allows more for ablations) and panic with
// ErrExhausted past it.
type Sparse struct {
	holders       map[int]int // node -> holder index
	bitsPerHolder int
	master        uint64
	ledger        Ledger
	slab          streamSlab
}

// NewSparse places bitsPerHolder independent private bits at each listed
// holder node. Duplicate holders are rejected.
func NewSparse(holders []int, bitsPerHolder int, masterSeed uint64) (*Sparse, error) {
	if bitsPerHolder < 1 {
		return nil, fmt.Errorf("randomness: bitsPerHolder must be >= 1, got %d", bitsPerHolder)
	}
	idx := make(map[int]int, len(holders))
	for i, h := range holders {
		if _, dup := idx[h]; dup {
			return nil, fmt.Errorf("randomness: duplicate holder %d", h)
		}
		idx[h] = i
	}
	return &Sparse{holders: idx, bitsPerHolder: bitsPerHolder, master: masterSeed}, nil
}

// Has reports whether v is a holder.
func (s *Sparse) Has(v int) bool {
	_, ok := s.holders[v]
	return ok
}

// Holders returns the number of holder nodes.
func (s *Sparse) Holders() int { return len(s.holders) }

// BitsPerHolder returns the per-holder budget.
func (s *Sparse) BitsPerHolder() int { return s.bitsPerHolder }

// SeedBits returns the total true randomness available in the network.
func (s *Sparse) SeedBits() int { return len(s.holders) * s.bitsPerHolder }

// Ledger returns the consumption ledger.
func (s *Sparse) Ledger() *Ledger { return &s.ledger }

// Stream returns the holder's budgeted stream. It panics for non-holders —
// under this model those nodes simply have no randomness to draw.
func (s *Sparse) Stream(v int) *Stream {
	i, ok := s.holders[v]
	if !ok {
		panic(fmt.Sprintf("randomness: node %d holds no random bits under the sparse model", v))
	}
	return s.slab.carve(Stream{
		rng:    *prng.New(prng.Hash64(s.master ^ uint64(i)*0xD1B54A32D192ED03)),
		budget: int64(s.bitsPerHolder),
		ledger: &s.ledger,
	})
}

var (
	_ Source = (*Full)(nil)
	_ Source = (*Shared)(nil)
	_ Source = (*Sparse)(nil)
)
