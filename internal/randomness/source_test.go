package randomness

import (
	"testing"

	"randlocal/internal/prng"
)

func TestFullStreamsIndependentAcrossNodes(t *testing.T) {
	src := NewFull(42)
	a := src.Stream(0).Bits(64)
	b := src.Stream(1).Bits(64)
	if a == b {
		t.Error("node 0 and node 1 streams coincide")
	}
}

func TestFullStreamReplayable(t *testing.T) {
	src := NewFull(42)
	a := src.Stream(5).Bits(64)
	b := src.Stream(5).Bits(64)
	if a != b {
		t.Error("the same node's randomness tape should be fixed")
	}
}

func TestFullLedgerCountsTrueBits(t *testing.T) {
	src := NewFull(1)
	s := src.Stream(0)
	s.Bits(10)
	s.Bit()
	if got := src.Ledger().TrueBits(); got != 11 {
		t.Errorf("true bits = %d, want 11", got)
	}
	if got := src.Ledger().DerivedBits(); got != 0 {
		t.Errorf("derived bits = %d, want 0", got)
	}
	if src.SeedBits() != -1 {
		t.Error("Full SeedBits should be -1 (unbounded)")
	}
	if !src.Has(12345) {
		t.Error("Full should have randomness everywhere")
	}
}

func TestStreamBitBalance(t *testing.T) {
	s := NewFull(7).Stream(3)
	ones := 0
	for i := 0; i < 10000; i++ {
		ones += int(s.Bit())
	}
	if ones < 4700 || ones > 5300 {
		t.Errorf("stream ones = %d/10000", ones)
	}
}

func TestStreamIntn(t *testing.T) {
	s := NewFull(9).Stream(0)
	counts := make([]int, 5)
	for i := 0; i < 10000; i++ {
		v := s.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		counts[v]++
	}
	for b, c := range counts {
		if c < 1700 || c > 2300 {
			t.Errorf("Intn bucket %d = %d, want ≈2000", b, c)
		}
	}
	if s.Intn(1) != 0 {
		t.Error("Intn(1) must be 0")
	}
}

func TestStreamIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewFull(1).Stream(0).Intn(0)
}

func TestStreamBitsRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bits(65) did not panic")
		}
	}()
	NewFull(1).Stream(0).Bits(65)
}

func TestStreamBernoulliFrequencies(t *testing.T) {
	s := NewFull(11).Stream(0)
	for _, p := range []float64{0.25, 0.5, 0.9} {
		hits := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if got < p-0.02 || got > p+0.02 {
			t.Errorf("Bernoulli(%v) frequency %v", p, got)
		}
	}
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if s.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !s.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
}

func TestStreamGeometricDistribution(t *testing.T) {
	s := NewFull(13).Stream(0)
	const n = 40000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		v, ok := s.Geometric(40)
		if !ok {
			t.Fatal("40 heads in a row is absurdly unlikely")
		}
		counts[v]++
	}
	// Pr[X = k] = 2^-k: expect ≈ n/2 at 1, n/4 at 2, n/8 at 3.
	for k := 1; k <= 3; k++ {
		want := float64(n) / float64(int(1)<<k)
		got := float64(counts[k])
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("Geometric mass at %d: %v, want ≈%v", k, got, want)
		}
	}
}

func TestStreamGeometricCap(t *testing.T) {
	// A stream of all-heads (all ones) must hit the cap and report !ok.
	s := fixedWordStream(^uint64(0))
	v, ok := s.Geometric(5)
	if ok || v != 5 {
		t.Errorf("Geometric on all-heads = (%d, %v), want (5, false)", v, ok)
	}
	// All-tails gives 1 immediately.
	s2 := fixedWordStream(0)
	if v, ok := s2.Geometric(5); !ok || v != 1 {
		t.Errorf("Geometric on all-tails = (%d, %v), want (1, true)", v, ok)
	}
}

func TestSharedSeedVisibleToAllNodes(t *testing.T) {
	src := NewShared(128, prng.New(5))
	a := src.Stream(0).Bits(64)
	b := src.Stream(99).Bits(64)
	if a != b {
		t.Error("shared randomness must look identical to every node")
	}
	if !src.Has(0) || !src.Has(10_000) {
		t.Error("all nodes can read the shared seed")
	}
}

func TestSharedSeedBudgetEnforced(t *testing.T) {
	src := NewShared(8, prng.New(5))
	s := src.Stream(0)
	s.Bits(8)
	defer func() {
		if recover() == nil {
			t.Fatal("reading past the shared seed did not panic")
		}
	}()
	s.Bit()
}

func TestSharedLedger(t *testing.T) {
	src := NewShared(100, prng.New(2))
	if got := src.Ledger().TrueBits(); got != 100 {
		t.Errorf("true bits = %d, want 100 (billed at construction)", got)
	}
	src.Stream(0).Bits(10)
	if got := src.Ledger().DerivedBits(); got != 10 {
		t.Errorf("derived bits = %d, want 10", got)
	}
	if src.SeedBits() != 100 {
		t.Errorf("SeedBits = %d", src.SeedBits())
	}
}

func TestSharedSeedBitPanicsOutOfRange(t *testing.T) {
	src := NewShared(10, prng.New(1))
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SeedBit(%d) did not panic", i)
				}
			}()
			src.SeedBit(i)
		}()
	}
}

func TestSharedKWiseFamily(t *testing.T) {
	src := NewShared(1000, prng.New(3))
	fam, next, err := src.KWiseFamily(4, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != 64 {
		t.Errorf("next offset = %d, want 64", next)
	}
	if fam.K() != 4 {
		t.Errorf("K = %d", fam.K())
	}
	// Deterministic: same seed section gives the same family.
	fam2, _, _ := src.KWiseFamily(4, 16, 0)
	for p := uint64(0); p < 50; p++ {
		if fam.Value(p) != fam2.Value(p) {
			t.Fatal("family from identical seed bits differs")
		}
	}
	// Exceeding the seed errors out.
	if _, _, err := src.KWiseFamily(100, 16, 0); err == nil {
		t.Error("oversized family request should fail")
	}
	if _, _, err := src.KWiseFamily(2, 16, 990); err == nil {
		t.Error("offset overflow should fail")
	}
}

func TestSharedEpsBiasSpace(t *testing.T) {
	src := NewShared(64, prng.New(4))
	gen, next, err := src.EpsBiasSpace(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != 32 {
		t.Errorf("next = %d, want 32", next)
	}
	_ = gen.Bit(3)
	if _, _, err := src.EpsBiasSpace(32, 10); err == nil {
		t.Error("overflowing eps-bias request should fail")
	}
}

func TestSparseHolderBudget(t *testing.T) {
	src, err := NewSparse([]int{2, 5, 7}, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if src.SeedBits() != 3 {
		t.Errorf("SeedBits = %d, want 3", src.SeedBits())
	}
	if src.Holders() != 3 || src.BitsPerHolder() != 1 {
		t.Error("holder accounting wrong")
	}
	if src.Has(3) {
		t.Error("node 3 is not a holder")
	}
	if !src.Has(5) {
		t.Error("node 5 is a holder")
	}
	s := src.Stream(5)
	_ = s.Bit() // the one bit
	defer func() {
		if recover() == nil {
			t.Fatal("second bit from a 1-bit holder did not panic")
		}
	}()
	s.Bit()
}

func TestSparseNonHolderPanics(t *testing.T) {
	src, _ := NewSparse([]int{0}, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Stream for non-holder did not panic")
		}
	}()
	src.Stream(9)
}

func TestSparseErrors(t *testing.T) {
	if _, err := NewSparse([]int{1, 1}, 1, 0); err == nil {
		t.Error("duplicate holders accepted")
	}
	if _, err := NewSparse([]int{1}, 0, 0); err == nil {
		t.Error("zero bits per holder accepted")
	}
}

func TestSparseBitsIndependentAcrossHolders(t *testing.T) {
	// With many holders, their single bits should be balanced.
	holders := make([]int, 2000)
	for i := range holders {
		holders[i] = i
	}
	src, err := NewSparse(holders, 1, 1234)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, h := range holders {
		ones += int(src.Stream(h).Bit())
	}
	if ones < 850 || ones > 1150 {
		t.Errorf("holder bits: %d ones out of 2000", ones)
	}
	if got := src.Ledger().TrueBits(); got != 2000 {
		t.Errorf("ledger true bits = %d", got)
	}
}

func TestSparseReplayable(t *testing.T) {
	src, _ := NewSparse([]int{4}, 8, 7)
	a := src.Stream(4).Bits(8)
	b := src.Stream(4).Bits(8)
	if a != b {
		t.Error("holder tape should be fixed")
	}
}

func TestStreamRemaining(t *testing.T) {
	src, _ := NewSparse([]int{0}, 5, 1)
	s := src.Stream(0)
	if s.Remaining() != 5 {
		t.Errorf("Remaining = %d", s.Remaining())
	}
	s.Bits(3)
	if s.Remaining() != 2 || s.Drawn() != 3 {
		t.Errorf("Remaining = %d Drawn = %d", s.Remaining(), s.Drawn())
	}
	unlimited := NewFull(1).Stream(0)
	if unlimited.Remaining() != -1 {
		t.Error("unlimited stream should report -1")
	}
}

func TestLedgerString(t *testing.T) {
	var l Ledger
	l.addTrue(3)
	l.addDerived(4)
	if l.String() != "ledger{true=3 derived=4}" {
		t.Errorf("String() = %q", l.String())
	}
}
