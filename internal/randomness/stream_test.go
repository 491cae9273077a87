package randomness

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"randlocal/internal/prng"
)

// fixedWordStream returns a stream whose tape repeats word w: eight copies,
// so its budget is 512 bits.
func fixedWordStream(w uint64) *Stream {
	seed := make([]uint64, 8)
	for i := range seed {
		seed[i] = w
	}
	return (&Shared{seed: seed, nbits: 64 * len(seed)}).Stream(0)
}

// refStream is the bit-at-a-time reading of a randomness tape that Stream
// must reproduce: bit i of the tape is bit i%64 of tape word i/64, every
// draw takes its bits one Bit at a time, and each bit is budgeted, counted
// and billed on its own.
type refStream struct {
	next   func() uint64 // the next tape word
	words  []uint64      // tape words decoded so far
	pos    int
	budget int64
	drawn  int64
	billed *int64 // the source's ledger total (true or derived bits)
}

func (r *refStream) bit() uint64 {
	if r.budget == 0 {
		panic(ErrExhausted)
	}
	if r.budget > 0 {
		r.budget--
	}
	r.drawn++
	*r.billed++
	for r.pos/64 >= len(r.words) {
		r.words = append(r.words, r.next())
	}
	b := r.words[r.pos/64] >> uint(r.pos%64) & 1
	r.pos++
	return b
}

func (r *refStream) bits(k int) uint64 {
	var v uint64
	for i := 0; i < k; i++ {
		v |= r.bit() << uint(i)
	}
	return v
}

func (r *refStream) geometric(maxFlips int) (int, bool) {
	for i := 1; i <= maxFlips; i++ {
		if r.bit() == 0 {
			return i, true
		}
	}
	return maxFlips, false
}

func (r *refStream) intn(n int) int {
	if n == 1 {
		return 0
	}
	k := 0
	for uint64(1)<<uint(k) < uint64(n) {
		k++
	}
	for {
		if v := int(r.bits(k)); v < n {
			return v
		}
	}
}

func (r *refStream) bernoulli(p float64) bool {
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
		if rBit := r.bit(); rBit != pBit {
			return rBit < pBit
		}
	}
	return false
}

func (r *refStream) remaining() int64 {
	if r.budget < 0 {
		return -1
	}
	return r.budget
}

// generatorTape returns the tape-word function of a SplitMix64 seeded with
// seed.
func generatorTape(seed uint64) func() uint64 { return prng.New(seed).Uint64 }

// exhausted runs draw and reports whether it panicked with ErrExhausted; any
// other panic propagates.
func exhausted(draw func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, isErr := r.(error); !isErr || !errors.Is(err, ErrExhausted) {
				panic(r)
			}
			ok = true
		}
	}()
	draw()
	return false
}

// TestStreamMatchesBitReference holds the word-at-a-time Stream to the
// bit-at-a-time reference over all three sources: random interleavings of
// every draw method across several streams of one source, with budgets that
// run out in the middle of a Bits or Geometric call, must return the same
// values, panic at the same calls, and leave the same Drawn, Remaining and
// ledger totals after every call.
func TestStreamMatchesBitReference(t *testing.T) {
	type pair struct {
		s *Stream
		r *refStream
	}
	fullRegime := func(seed uint64) ([]pair, *Ledger, *int64, *int64, int64) {
		src := NewFull(seed)
		var billed, none int64
		var ps []pair
		for _, v := range []int{0, 1, 7, 1} { // node 1 twice: same tape, separate reads
			ps = append(ps, pair{src.Stream(v), &refStream{
				next:   generatorTape(prng.Hash64(seed ^ uint64(v)*0x9E3779B97F4A7C15)),
				budget: -1, billed: &billed,
			}})
		}
		return ps, src.Ledger(), &billed, &none, 0
	}
	sparseRegime := func(budget int) func(uint64) ([]pair, *Ledger, *int64, *int64, int64) {
		return func(seed uint64) ([]pair, *Ledger, *int64, *int64, int64) {
			holders := []int{3, 11, 5}
			src, err := NewSparse(holders, budget, seed)
			if err != nil {
				t.Fatal(err)
			}
			var billed, none int64
			var ps []pair
			for i, h := range holders {
				ps = append(ps, pair{src.Stream(h), &refStream{
					next:   generatorTape(prng.Hash64(seed ^ uint64(i)*0xD1B54A32D192ED03)),
					budget: int64(budget), billed: &billed,
				}})
			}
			return ps, src.Ledger(), &billed, &none, 0
		}
	}
	sharedRegime := func(nbits int) func(uint64) ([]pair, *Ledger, *int64, *int64, int64) {
		return func(seed uint64) ([]pair, *Ledger, *int64, *int64, int64) {
			src := NewShared(nbits, prng.New(seed))
			var billed, none int64
			var ps []pair
			for _, v := range []int{0, 4, 9} {
				w := 0
				ps = append(ps, pair{src.Stream(v), &refStream{
					next:   func() uint64 { w++; return src.seed[w-1] },
					budget: int64(nbits), billed: &billed,
				}})
			}
			return ps, src.Ledger(), &none, &billed, int64(nbits)
		}
	}
	regimes := []struct {
		name  string
		build func(uint64) ([]pair, *Ledger, *int64, *int64, int64)
	}{
		{"full", fullRegime},
		{"sparse/1", sparseRegime(1)},
		{"sparse/7", sparseRegime(7)},
		{"sparse/130", sparseRegime(130)},
		{"sparse/1000", sparseRegime(1000)},
		{"shared/0", sharedRegime(0)},
		{"shared/200", sharedRegime(200)},
		{"shared/1000", sharedRegime(1000)},
	}
	intns := []int{1, 2, 3, 5, 64, 1000, 1<<20 + 7, 1 << 40, 1<<62 + 1, math.MaxInt}
	for _, rg := range regimes {
		for seed := uint64(1); seed <= 12; seed++ {
			streams, ledger, trueBits, derivedBits, seedBits := rg.build(seed)
			ops := prng.New(seed * 977)
			for step := 0; step < 400; step++ {
				p := streams[ops.Intn(len(streams))]
				var op string
				var got, want func() uint64
				switch ops.Intn(6) {
				case 0:
					op = "Bit()"
					got, want = p.s.Bit, p.r.bit
				case 1, 2:
					k := ops.Intn(65)
					if ops.Intn(4) == 0 { // word boundaries and full words
						k = []int{0, 1, 63, 64}[ops.Intn(4)]
					}
					op = fmt.Sprintf("Bits(%d)", k)
					got = func() uint64 { return p.s.Bits(k) }
					want = func() uint64 { return p.r.bits(k) }
				case 3:
					m := ops.Intn(72) - 1
					op = fmt.Sprintf("Geometric(%d)", m)
					enc := func(v int, ok bool) uint64 {
						if ok {
							return uint64(v)<<1 | 1
						}
						return uint64(v) << 1
					}
					got = func() uint64 { return enc(p.s.Geometric(m)) }
					want = func() uint64 { return enc(p.r.geometric(m)) }
				case 4:
					n := intns[ops.Intn(len(intns))]
					op = fmt.Sprintf("Intn(%d)", n)
					got = func() uint64 { return uint64(p.s.Intn(n)) }
					want = func() uint64 { return uint64(p.r.intn(n)) }
				default:
					q := []float64{0, 1, 0.5, 0.3, 1.0 / 3, 1e-9}[ops.Intn(6)]
					op = fmt.Sprintf("Bernoulli(%v)", q)
					b2u := func(b bool) uint64 {
						if b {
							return 1
						}
						return 0
					}
					got = func() uint64 { return b2u(p.s.Bernoulli(q)) }
					want = func() uint64 { return b2u(p.r.bernoulli(q)) }
				}
				var g, w uint64
				gx := exhausted(func() { g = got() })
				wx := exhausted(func() { w = want() })
				where := fmt.Sprintf("%s seed %d step %d %s", rg.name, seed, step, op)
				switch {
				case gx != wx:
					t.Fatalf("%s: exhausted=%v, reference %v", where, gx, wx)
				case !gx && g != w:
					t.Fatalf("%s = %#x, reference %#x", where, g, w)
				case p.s.Drawn() != p.r.drawn || p.s.Remaining() != p.r.remaining():
					t.Fatalf("%s: drawn %d remaining %d, reference %d and %d",
						where, p.s.Drawn(), p.s.Remaining(), p.r.drawn, p.r.remaining())
				case ledger.TrueBits() != *trueBits+seedBits || ledger.DerivedBits() != *derivedBits:
					t.Fatalf("%s: %v, reference true=%d derived=%d",
						where, ledger, *trueBits+seedBits, *derivedBits)
				}
			}
		}
	}
}

// TestStreamExhaustionBillsRemainingBits pins what a draw that outruns its
// budget leaves behind: the bits that were left are drawn and billed, and
// only then does it panic.
func TestStreamExhaustionBillsRemainingBits(t *testing.T) {
	src, err := NewSparse([]int{0}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := src.Stream(0)
	if !exhausted(func() { s.Bits(5) }) {
		t.Fatal("Bits(5) on a 3-bit budget did not panic")
	}
	if s.Drawn() != 3 || s.Remaining() != 0 || src.Ledger().TrueBits() != 3 {
		t.Errorf("after Bits(5) on 3 bits: drawn %d remaining %d %v, want 3, 0, 3 true bits",
			s.Drawn(), s.Remaining(), src.Ledger())
	}

	sh := NewShared(70, prng.New(2))
	st := sh.Stream(0)
	st.Bits(64)
	if !exhausted(func() { st.Bits(10) }) {
		t.Fatal("Bits(10) past a 70-bit seed did not panic")
	}
	if st.Drawn() != 70 || sh.Ledger().DerivedBits() != 70 {
		t.Errorf("shared: drawn %d %v, want 70 derived bits", st.Drawn(), sh.Ledger())
	}

	heads := fixedWordStream(^uint64(0))
	if !exhausted(func() { heads.Geometric(600) }) {
		t.Fatal("Geometric(600) on 512 bits of heads did not panic")
	}
	if heads.Drawn() != 512 {
		t.Errorf("Geometric past the budget drew %d bits, want 512", heads.Drawn())
	}
}

// TestSharedSeedWordMatchesSeedBits holds SeedWord's word reads, which may
// straddle two seed words, to the seed read one SeedBit at a time, and to
// the same out-of-range panic.
func TestSharedSeedWordMatchesSeedBits(t *testing.T) {
	src := NewShared(300, prng.New(4))
	for off := 0; off <= 300; off++ {
		for k := 0; k <= 64; k++ {
			if off+k > 300 {
				if k > 0 && !exhausted(func() { src.SeedWord(off, k) }) {
					t.Fatalf("SeedWord(%d, %d) past a 300-bit seed did not panic", off, k)
				}
				continue
			}
			var want uint64
			for i := 0; i < k; i++ {
				want |= src.SeedBit(off+i) << uint(i)
			}
			if got := src.SeedWord(off, k); got != want {
				t.Fatalf("SeedWord(%d, %d) = %#x, bit by bit %#x", off, k, got, want)
			}
		}
	}
}

// TestStreamIntnHugeBound is the regression test for a bound above 2^62,
// where computing the draw width by doubling overflowed and never stopped.
func TestStreamIntnHugeBound(t *testing.T) {
	s := NewFull(1).Stream(0)
	for _, n := range []int{1<<62 + 1, math.MaxInt} {
		for i := 0; i < 100; i++ {
			if v := s.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

// TestFullStreamsConcurrent creates and draws streams from one Full source
// on four goroutines: every node's draws must match a sequential replay (no
// two callers get the same slab slot) and the ledger must bill every bit
// exactly once.
func TestFullStreamsConcurrent(t *testing.T) {
	const workers, perWorker = 4, 1500
	src := NewFull(9)
	got := make([]uint64, workers*perWorker)
	var drawn atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := w + workers*i
				s := src.Stream(v)
				s.Geometric(1 + v%40)
				got[v] = s.Bits(64)
				s.Bits(v % 65)
				drawn.Add(s.Drawn())
			}
		}(w)
	}
	wg.Wait()
	if src.Ledger().TrueBits() != drawn.Load() || src.Ledger().DerivedBits() != 0 {
		t.Errorf("%v, want true=%d derived=0", src.Ledger(), drawn.Load())
	}
	replay := NewFull(9)
	for v, g := range got {
		s := replay.Stream(v)
		s.Geometric(1 + v%40)
		if want := s.Bits(64); g != want {
			t.Fatalf("node %d drew %#x concurrently, %#x sequentially", v, g, want)
		}
	}
}

// TestFullStreamAllocs pins the slab: handing out streams allocates one
// chunk per streamChunk calls, far below one allocation per node.
func TestFullStreamAllocs(t *testing.T) {
	src := NewFull(3)
	v := 0
	const calls = 1024
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < calls; i++ {
			src.Stream(v)
			v++
		}
	})
	if avg > calls/256 {
		t.Errorf("%d Full.Stream calls allocate %.1f times, want at most %d", calls, avg, calls/256)
	}
}

var streamSink uint64

// BenchmarkStream times handing a node its stream and the draws the node
// programs make: Luby's mark (a few bits), a wide draw that crosses a tape
// word, and an Elkin–Neiman radius. Compare with prng's BenchmarkUint64,
// the cost of one raw tape word.
func BenchmarkStream(b *testing.B) {
	b.Run("create", func(b *testing.B) {
		src := NewFull(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Stream(i)
		}
	})
	draw := func(name string, f func(*Stream) uint64) {
		b.Run(name, func(b *testing.B) {
			s := NewFull(1).Stream(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				streamSink += f(s)
			}
		})
	}
	draw("Bits4", func(s *Stream) uint64 { return s.Bits(4) })
	draw("Bits60", func(s *Stream) uint64 { return s.Bits(60) })
	draw("Geometric32", func(s *Stream) uint64 {
		v, _ := s.Geometric(32)
		return uint64(v)
	})
}
