package sim

import (
	"testing"

	"randlocal/internal/randomness"
)

// first32 drains the first 32 bits of a randomness stream into one word,
// most significant first.
func first32(s *randomness.Stream) uint64 {
	var bits uint64
	for i := 0; i < 32; i++ {
		bits = bits<<1 | s.Bit()
	}
	return bits
}

// TestAlgorithmStreamGolden pins the algorithm coin stream to its
// pre-partitioning values: NewSimulationKey(s).FullSource() must reproduce
// randomness.NewFull(s) bit for bit. The constants were captured from the
// historical construction; if this test fails, every checked-in experiment
// record and golden run in the repository is invalidated.
func TestAlgorithmStreamGolden(t *testing.T) {
	golden := map[int]uint64{0: 0x204E08A6, 7: 0xF0B482AD}
	key := NewSimulationKey(42)
	if key.Subseed(StreamAlgorithm) != 42 {
		t.Fatalf("algorithm subseed %d, want the master seed unchanged", key.Subseed(StreamAlgorithm))
	}
	for v, want := range golden {
		if got := first32(key.FullSource().Stream(v)); got != want {
			t.Errorf("key-derived algorithm stream, node %d: 0x%08X, want golden 0x%08X", v, got, want)
		}
		if got := first32(randomness.NewFull(42).Stream(v)); got != want {
			t.Errorf("raw NewFull stream, node %d: 0x%08X, want golden 0x%08X", v, got, want)
		}
	}
}

// TestDeriveGolden pins SimulationKey.Derive to the experiments pipeline's
// historical FNV-1a RunSpec seed derivation (constants computed
// independently of this code base).
func TestDeriveGolden(t *testing.T) {
	cases := []struct {
		label  string
		master uint64
		want   uint64
	}{
		{"E3|private|n=512|t=0", 7, 0xa6e11188d82b647f},
		{"E12|Luby/drop=0.02|n=256|t=1", 2019, 0x22e10c27273d8f67},
	}
	for _, c := range cases {
		if got := uint64(NewSimulationKey(c.master).Derive(c.label)); got != c.want {
			t.Errorf("Derive(%q) under master %d: 0x%016x, want 0x%016x", c.label, c.master, got, c.want)
		}
	}
}

// TestStreamIsolation is the heart of the partitioned-randomness contract:
// draining arbitrarily many coins from the adversary (or workload) stream
// leaves the algorithm stream bit-identical, and all subsystem streams are
// pairwise distinct.
func TestStreamIsolation(t *testing.T) {
	key := NewSimulationKey(1234)

	clean := key.RNG()
	var cleanAlgo [64]uint64
	for i := range cleanAlgo {
		cleanAlgo[i] = clean.Algorithm().Uint64()
	}

	drained := key.RNG()
	for i := 0; i < 10_000; i++ {
		drained.Adversary().Uint64()
		drained.Workload().Uint64()
	}
	for i := range cleanAlgo {
		if got := drained.Algorithm().Uint64(); got != cleanAlgo[i] {
			t.Fatalf("algorithm draw %d perturbed by other subsystems: %x != %x", i, got, cleanAlgo[i])
		}
	}

	subs := []Subsystem{StreamAlgorithm, StreamAdversary, StreamWorkload}
	seeds := map[uint64]Subsystem{}
	for _, s := range subs {
		seed := key.Subseed(s)
		if prev, dup := seeds[seed]; dup {
			t.Fatalf("subsystems %v and %v share seed %x", prev, s, seed)
		}
		seeds[seed] = s
	}
}

// TestSourceHelpers checks that the key's source constructors are
// deterministic in the key and draw only from the algorithm subsystem.
func TestSourceHelpers(t *testing.T) {
	key := NewSimulationKey(99)
	if a, b := first32(key.SharedSource(64).Stream(0)), first32(key.SharedSource(64).Stream(5)); a != b {
		t.Errorf("shared source streams differ across nodes: %x vs %x", a, b)
	}
	sp1, err := key.SparseSource([]int{2, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := key.SparseSource([]int{2, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sp1.Stream(2).Bits(8), sp2.Stream(2).Bits(8); a != b {
		t.Errorf("sparse source not deterministic in the key: %x vs %x", a, b)
	}
	if sp1.Has(3) {
		t.Error("non-holder reported as holder")
	}
}

// TestRandomIDsWorkloadStream checks the fixed RandomIDs signature: the
// assignment is a pure function of the key, injective, and independent of
// algorithm-stream consumption by construction (the key carries no shared
// state at all).
func TestRandomIDsWorkloadStream(t *testing.T) {
	key := NewSimulationKey(5)
	a := RandomIDs(300, 4, key)
	b := RandomIDs(300, 4, key)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RandomIDs not deterministic in the key at %d", i)
		}
	}
	c := RandomIDs(300, 4, NewSimulationKey(6))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different keys produced identical ID assignments")
	}
}
