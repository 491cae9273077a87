package coloring

import (
	"testing"

	"randlocal/internal/check"
	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

func TestRandomizedColoringOnFamilies(t *testing.T) {
	rng := prng.New(3)
	families := map[string]*graph.Graph{
		"ring65":    graph.Ring(65),
		"clique20":  graph.Complete(20),
		"gnp200":    graph.GNPConnected(200, 5.0/200, rng),
		"tree80":    graph.RandomTree(80, rng),
		"grid9":     graph.Grid(9, 9),
		"singleton": graph.NewBuilder(1).Graph(),
		"isolated":  graph.NewBuilder(3).Graph(),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			colors, res, err := Randomized(g, randomness.NewFull(uint64(len(name)*17)), nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := check.Coloring(g, colors, g.MaxDegree()+1); err != nil {
				t.Fatalf("invalid coloring: %v", err)
			}
			if res.MaxMessageBits > sim.CongestBits(g.N()) {
				t.Errorf("CONGEST violated: %d bits", res.MaxMessageBits)
			}
		})
	}
}

func TestRandomizedColoringPaletteIsDegreePlusOne(t *testing.T) {
	// Stronger than (Δ+1): every node's color is within its own degree+1.
	rng := prng.New(8)
	g := graph.GNPConnected(150, 0.05, rng)
	colors, _, err := Randomized(g, randomness.NewFull(2), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range colors {
		if c > g.Degree(v) {
			t.Errorf("node %d (degree %d) got color %d", v, g.Degree(v), c)
		}
	}
}

func TestRandomizedColoringInjectedCandidates(t *testing.T) {
	// Deterministic candidate injection (here: k-wise family values) must
	// still yield a proper coloring — conflicts just resolve by ID.
	fam, err := randomness.NewKWise(16, 64, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid(8, 8)
	cfg := Config{Candidate: func(v, phase, size int) int {
		return int(fam.Value(uint64(v)*1024+uint64(phase)) % uint64(size))
	}}
	colors, _, err := Randomized(g, randomness.NewFull(1), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Coloring(g, colors, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyColoring(t *testing.T) {
	rng := prng.New(4)
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(50, 0.12, rng)
		colors := Greedy(g, rng.Perm(50))
		if err := check.Coloring(g, colors, g.MaxDegree()+1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	colors := Greedy(graph.Path(4), nil)
	want := []int{0, 1, 0, 1}
	for v := range want {
		if colors[v] != want[v] {
			t.Errorf("greedy P4: %v", colors)
			break
		}
	}
}

func TestRandomizedColoringDeterministicGivenSeed(t *testing.T) {
	g := graph.Ring(60)
	a, _, _ := Randomized(g, randomness.NewFull(9), nil, Config{})
	b, _, _ := Randomized(g, randomness.NewFull(9), nil, Config{})
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("coloring not deterministic for a fixed seed")
		}
	}
}
