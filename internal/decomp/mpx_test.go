package decomp

import (
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

func TestMPXPartitionValid(t *testing.T) {
	rng := prng.New(17)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring128", graph.Ring(128)},
		{"gnp256", graph.GNPConnected(256, 4.0/256, rng)},
		{"grid12", graph.Grid(12, 12)},
		{"tree200", graph.RandomTree(200, rng)},
		{"single", graph.NewBuilder(1).Graph()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := MPXPartition(tc.g, randomness.NewFull(uint64(len(tc.name))), nil, sim.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			n := tc.g.N()
			lg := log2Ceil(n) + 1
			if res.MaxClusterDiameter > 4*(2*lg+4) {
				t.Errorf("cluster diameter %d beyond the O(log n) envelope", res.MaxClusterDiameter)
			}
			// Every node assigned; centers own their clusters.
			for v, c := range res.Cluster {
				if c < 0 || c >= n {
					t.Fatalf("node %d assigned to %d", v, c)
				}
				if res.Cluster[c] != c {
					t.Fatalf("center %d not in its own cluster", c)
				}
			}
		})
	}
}

func TestMPXCutFraction(t *testing.T) {
	// The random-shift argument cuts each edge with probability O(1/cap);
	// on a large ring the cut fraction should be well below 1/2.
	g := graph.Ring(2048)
	res, err := MPXPartition(g, randomness.NewFull(3), nil, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.CutEdges) / float64(g.M())
	if frac > 0.5 {
		t.Errorf("cut fraction %.2f too high", frac)
	}
	if res.CutEdges == 0 {
		t.Error("a 2048-ring cannot be one MPX cluster of logarithmic diameter")
	}
}

func TestMPXDeterministicGivenSeed(t *testing.T) {
	g := graph.Grid(10, 10)
	a, err := MPXPartition(g, randomness.NewFull(9), nil, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MPXPartition(g, randomness.NewFull(9), nil, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Cluster {
		if a.Cluster[v] != b.Cluster[v] {
			t.Fatal("MPX not deterministic for a fixed seed")
		}
	}
}

func TestMPXVsENAblation(t *testing.T) {
	// E10 ablation: chaining MPX clusters consumes more colors than
	// EN's gap rule but each pass is a single flood. Sanity-compare round
	// costs on the same graph.
	g := graph.GNPConnected(512, 4.0/512, prng.New(21))
	mpx, err := MPXPartition(g, randomness.NewFull(2), nil, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, enRes, err := ElkinNeiman(g, randomness.NewFull(2), nil, ENConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mpx.Rounds >= enRes.Rounds {
		t.Errorf("single MPX pass (%d rounds) should be cheaper than full EN (%d rounds)", mpx.Rounds, enRes.Rounds)
	}
}
