package decomp

import (
	"math"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestENEntryOrdering(t *testing.T) {
	a := enEntry{id: 5, val: 3}
	b := enEntry{id: 2, val: 3}
	c := enEntry{id: 9, val: 7}
	if !c.better(a) || !c.better(b) {
		t.Error("higher value must rank first")
	}
	if !b.better(a) || a.better(b) {
		t.Error("equal values must tie-break by lower ID")
	}
}

func TestElkinNeimanValidOnFamilies(t *testing.T) {
	rng := prng.New(2024)
	families := map[string]*graph.Graph{
		"ring64":      graph.Ring(64),
		"path100":     graph.Path(100),
		"grid8x8":     graph.Grid(8, 8),
		"gnp128":      graph.GNPConnected(128, 3.0/128, rng),
		"tree200":     graph.RandomTree(200, rng),
		"clique16":    graph.Complete(16),
		"singleton":   graph.NewBuilder(1).Graph(),
		"two":         graph.Path(2),
		"disconnect":  graph.Disjoint(graph.Ring(10), graph.Ring(10)),
		"ringcliques": graph.RingOfCliques(8, 6),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			src := randomness.NewFull(uint64(len(name)) * 7919)
			d, res, err := ElkinNeiman(g, src, nil, ENConfig{})
			if err != nil {
				t.Fatalf("EN failed: %v", err)
			}
			lg := log2Ceil(g.N()) + 1
			maxColors := 12*lg + 8
			maxDiam := 2 * (2*lg + 4) // two cluster radii
			if err := d.Validate(g, maxColors, maxDiam); err != nil {
				t.Fatalf("invalid decomposition: %v", err)
			}
			if res.MaxMessageBits > sim.CongestBits(g.N()) {
				t.Errorf("CONGEST violated: %d bits", res.MaxMessageBits)
			}
		})
	}
}

func TestElkinNeimanLogParameterShape(t *testing.T) {
	// The paper's claim: O(log n) colors, O(log n) strong diameter. Check
	// that colors/log2(n) and diameter/log2(n) stay below fixed constants
	// across a size sweep — the "shape" validation of experiment E1.
	rng := prng.New(7)
	for _, n := range []int{64, 256, 1024} {
		g := graph.GNPConnected(n, 4.0/float64(n), rng)
		src := randomness.NewFull(uint64(n))
		d, _, err := ElkinNeiman(g, src, nil, ENConfig{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lg := math.Log2(float64(n))
		st := d.StatsOf(g)
		if ratio := float64(st.Colors) / lg; ratio > 4 {
			t.Errorf("n=%d: colors=%d, colors/log n=%.1f too large", n, st.Colors, ratio)
		}
		if ratio := float64(st.MaxDiameter) / lg; ratio > 8 {
			t.Errorf("n=%d: diameter=%d, diam/log n=%.1f too large", n, st.MaxDiameter, ratio)
		}
	}
}

func TestElkinNeimanRoundComplexity(t *testing.T) {
	// O(log² n) CONGEST rounds: rounds / log² n bounded.
	rng := prng.New(3)
	g := graph.GNPConnected(512, 3.0/512, rng)
	_, res, err := ElkinNeiman(g, randomness.NewFull(5), nil, ENConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lg := math.Log2(512)
	if ratio := float64(res.Rounds) / (lg * lg); ratio > 6 {
		t.Errorf("rounds = %d, rounds/log² n = %.1f", res.Rounds, ratio)
	}
}

func TestElkinNeimanMatchesReference(t *testing.T) {
	// With identical injected radii, the message-passing program and the
	// centralized reference must produce the identical clustering.
	rng := prng.New(99)
	for trial := 0; trial < 6; trial++ {
		g := graph.GNPConnected(48, 0.07, rng)
		n := g.N()
		cap := 2*log2Ceil(n) + 4
		maxPhases := 12*log2Ceil(n) + 8
		// Pre-draw all radii deterministically.
		radii := make(map[[2]int]int)
		radiusRng := prng.New(uint64(trial) + 1)
		radius := func(v, phase int) int {
			key := [2]int{v, phase}
			if r, ok := radii[key]; ok {
				return r
			}
			r := 1
			for r < cap && radiusRng.Bool() {
				r++
			}
			radii[key] = r
			return r
		}
		// The program and reference must see the same draws; pre-populate
		// by querying in a fixed order.
		for phase := 0; phase < maxPhases; phase++ {
			for v := 0; v < n; v++ {
				radius(v, phase)
			}
		}
		cfg := ENConfig{Radius: radius, RadiusCap: cap, MaxPhases: maxPhases}
		d, _, err := ElkinNeiman(g, randomness.NewFull(1), nil, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(i)
		}
		ref := ElkinNeimanReference(g, ids, maxPhases, radius)
		for v := 0; v < n; v++ {
			if d.Cluster[v] != ref.Cluster[v] || d.Color[v] != ref.Color[v] {
				t.Fatalf("trial %d node %d: program (%d,%d) vs reference (%d,%d)",
					trial, v, d.Cluster[v], d.Color[v], ref.Cluster[v], ref.Color[v])
			}
		}
	}
}

func TestElkinNeimanCentersJoinOwnCluster(t *testing.T) {
	rng := prng.New(12)
	g := graph.GNPConnected(100, 0.05, rng)
	d, _, err := ElkinNeiman(g, randomness.NewFull(8), nil, ENConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster labels are center IDs (= node indices with default IDs):
	// every referenced center must belong to its own cluster.
	for v := 0; v < g.N(); v++ {
		center := d.Cluster[v]
		if d.Cluster[center] != center {
			t.Fatalf("node %d joined center %d, but that center is in cluster %d",
				v, center, d.Cluster[center])
		}
	}
}

func TestElkinNeimanDeterministicGivenSeed(t *testing.T) {
	g := graph.Ring(50)
	run := func() *Decomposition {
		d, _, err := ElkinNeiman(g, randomness.NewFull(1234), nil, ENConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := run(), run()
	for v := range a.Cluster {
		if a.Cluster[v] != b.Cluster[v] || a.Color[v] != b.Color[v] {
			t.Fatal("EN not deterministic for a fixed seed")
		}
	}
}

func TestElkinNeimanRandomnessBudget(t *testing.T) {
	// Lemma 3.3 budgets O(log² n) bits per node; measure the actual draw.
	g := graph.Ring(256)
	src := randomness.NewFull(77)
	_, _, err := ElkinNeiman(g, src, nil, ENConfig{})
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(src.Ledger().TrueBits()) / 256
	lg := math.Log2(256)
	if perNode > 4*lg*lg {
		t.Errorf("bits per node %.1f exceed O(log² n) budget (%0.f)", perNode, 4*lg*lg)
	}
}

func TestDecompositionValidateRejections(t *testing.T) {
	g := graph.Path(4)
	valid := &Decomposition{Cluster: []int{0, 0, 1, 1}, Color: []int{0, 0, 1, 1}}
	if err := valid.Validate(g, 2, 1); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	cases := map[string]*Decomposition{
		"short arrays":       {Cluster: []int{0}, Color: []int{0}},
		"unclustered node":   {Cluster: []int{0, -1, 1, 1}, Color: []int{0, 0, 1, 1}},
		"inconsistent color": {Cluster: []int{0, 0, 1, 1}, Color: []int{0, 1, 1, 1}},
		"adjacent same color": {
			Cluster: []int{0, 0, 1, 1}, Color: []int{0, 0, 0, 0}},
		"disconnected cluster": {
			Cluster: []int{0, 1, 0, 1}, Color: []int{0, 1, 0, 1}},
	}
	for name, d := range cases {
		if err := d.Validate(g, 0, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Diameter bound violation.
	one := &Decomposition{Cluster: []int{0, 0, 0, 0}, Color: []int{0, 0, 0, 0}}
	if err := one.Validate(g, 1, 2); err == nil {
		t.Error("diameter 3 accepted under bound 2")
	}
	if err := one.Validate(g, 1, 3); err != nil {
		t.Errorf("single cluster of P4 should be valid: %v", err)
	}
	// Color budget violation.
	many := &Decomposition{Cluster: []int{0, 1, 2, 3}, Color: []int{0, 1, 2, 3}}
	if err := many.Validate(g, 2, 0); err == nil {
		t.Error("4 colors accepted under bound 2")
	}
}

func TestDecompositionStats(t *testing.T) {
	g := graph.Path(6)
	d := &Decomposition{
		Cluster: []int{0, 0, 0, 1, 1, 2},
		Color:   []int{0, 0, 0, 1, 1, 0},
	}
	st := d.StatsOf(g)
	if st.Colors != 2 || st.Clusters != 3 || st.MaxSize != 3 || st.MaxDiameter != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestElkinNeimanParallelEngineAgrees(t *testing.T) {
	// The EN program under the worker-pool engine produces the exact same
	// decomposition as under the sequential scheduler.
	g := graph.GNPConnected(64, 0.08, prng.New(33))
	cfg := sim.Config{Graph: g, Source: randomness.NewFull(6), MaxMessageBits: sim.CongestBits(g.N())}
	seq, err := sim.Run(cfg, func(int) sim.NodeProgram[enOutput] { return &enProgram{} })
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Source = randomness.NewFull(6)
	par, err := sim.RunParallel(cfg2, func(int) sim.NodeProgram[enOutput] { return &enProgram{} }, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Outputs {
		if seq.Outputs[v] != par.Outputs[v] {
			t.Fatalf("node %d: %+v vs %+v", v, seq.Outputs[v], par.Outputs[v])
		}
	}
}

func TestElkinNeimanRandomAndAdversarialIDs(t *testing.T) {
	rng := prng.New(44)
	g := graph.GNPConnected(128, 0.04, rng)
	for name, ids := range map[string][]uint64{
		"random":      sim.RandomIDs(g.N(), g.N(), sim.NewSimulationKey(rng.Uint64())),
		"adversarial": sim.AdversarialDescendingIDs(g.N()),
	} {
		d, _, err := ElkinNeiman(g, randomness.NewFull(11), ids, ENConfig{})
		if err != nil {
			t.Fatalf("%s IDs: %v", name, err)
		}
		if err := d.Validate(g, 0, 0); err != nil {
			t.Fatalf("%s IDs: invalid: %v", name, err)
		}
	}
}

func TestElkinNeimanUnderKT0(t *testing.T) {
	// EN never consults NeighborIDs, so KT0 must work identically.
	g := graph.Ring(64)
	cfg := sim.Config{Graph: g, Source: randomness.NewFull(2), MaxMessageBits: sim.CongestBits(64), KT0: true}
	res, err := sim.Run(cfg, func(int) sim.NodeProgram[enOutput] { return &enProgram{} })
	if err != nil {
		t.Fatal(err)
	}
	d := &Decomposition{Cluster: make([]int, 64), Color: make([]int, 64)}
	for v, out := range res.Outputs {
		d.Cluster[v], d.Color[v] = out.Cluster, out.Color
	}
	if err := d.Validate(g, 0, 0); err != nil {
		t.Fatal(err)
	}
}
