package mis

import (
	"math"
	"testing"

	"randlocal/internal/check"
	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

func TestLubyOnFamilies(t *testing.T) {
	rng := prng.New(55)
	families := map[string]*graph.Graph{
		"ring64":    graph.Ring(64),
		"clique32":  graph.Complete(32),
		"gnp256":    graph.GNPConnected(256, 4.0/256, rng),
		"tree100":   graph.RandomTree(100, rng),
		"grid10":    graph.Grid(10, 10),
		"star50":    graph.Star(50),
		"singleton": graph.NewBuilder(1).Graph(),
		"isolated":  graph.NewBuilder(5).Graph(),
		"disjoint":  graph.Disjoint(graph.Ring(8), graph.Complete(4)),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			in, res, err := Luby(g, randomness.NewFull(uint64(len(name))), nil, LubyConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := check.MIS(g, in); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
			if res.MaxMessageBits > sim.CongestBits(g.N()) {
				t.Errorf("CONGEST violated: %d bits", res.MaxMessageBits)
			}
		})
	}
}

func TestLubyLogRounds(t *testing.T) {
	// O(log n) phases w.h.p.: rounds / log n bounded across sizes.
	rng := prng.New(2)
	for _, n := range []int{128, 512, 2048} {
		g := graph.GNPConnected(n, 6.0/float64(n), rng)
		_, res, err := Luby(g, randomness.NewFull(uint64(n)), nil, LubyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if ratio := float64(res.Rounds) / math.Log2(float64(n)); ratio > 12 {
			t.Errorf("n=%d: rounds=%d, rounds/log n = %.1f", n, res.Rounds, ratio)
		}
	}
}

func TestLubyIsolatedNodesJoin(t *testing.T) {
	g := graph.NewBuilder(4).Graph()
	in, _, err := Luby(g, randomness.NewFull(1), nil, LubyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v, b := range in {
		if !b {
			t.Errorf("isolated node %d not in MIS", v)
		}
	}
}

func TestLubyAdversarialIDs(t *testing.T) {
	rng := prng.New(9)
	g := graph.GNPConnected(128, 0.05, rng)
	ids := sim.AdversarialDescendingIDs(128)
	in, _, err := Luby(g, randomness.NewFull(3), ids, LubyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.MIS(g, in); err != nil {
		t.Fatal(err)
	}
}

func TestLubyKWisePriorities(t *testing.T) {
	// Limited independence ablation: priorities from a Θ(log n)-wise
	// family instead of fresh private coins. The MIS must still verify.
	rng := prng.New(10)
	g := graph.GNPConnected(256, 5.0/256, rng)
	fam, err := randomness.NewKWise(32, 64, prng.New(123))
	if err != nil {
		t.Fatal(err)
	}
	cfg := LubyConfig{
		Priority: func(v, phase int) uint64 {
			return fam.Value(uint64(v)*4096+uint64(phase)) & 0xFFFFFF
		},
	}
	in, _, err := Luby(g, randomness.NewFull(1), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.MIS(g, in); err != nil {
		t.Fatalf("k-wise MIS invalid: %v", err)
	}
}

func TestLubyDeterministicGivenSeed(t *testing.T) {
	g := graph.Ring(100)
	a, _, err := Luby(g, randomness.NewFull(7), nil, LubyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Luby(g, randomness.NewFull(7), nil, LubyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("Luby not deterministic for a fixed seed")
		}
	}
}

func TestGreedyMISValid(t *testing.T) {
	rng := prng.New(6)
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(60, 0.1, rng)
		order := rng.Perm(60)
		in := Greedy(g, order)
		if err := check.MIS(g, in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	// Default order.
	in := Greedy(graph.Path(5), nil)
	if err := check.MIS(graph.Path(5), in); err != nil {
		t.Fatal(err)
	}
	if !in[0] || in[1] || !in[2] {
		t.Errorf("greedy on P5 index order = %v", in)
	}
}

func TestLubyRandomnessAccounted(t *testing.T) {
	g := graph.Ring(64)
	src := randomness.NewFull(5)
	_, _, err := Luby(g, src, nil, LubyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if src.Ledger().TrueBits() == 0 {
		t.Error("Luby consumed no accounted randomness")
	}
	// Ω(1) bits per node per phase; sanity upper bound too.
	perNode := float64(src.Ledger().TrueBits()) / 64
	if perNode < 8 || perNode > 4096 {
		t.Errorf("bits per node = %.0f looks wrong", perNode)
	}
}
