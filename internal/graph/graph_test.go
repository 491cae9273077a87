package graph

import (
	"testing"
	"testing/quick"

	"randlocal/internal/prng"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Graph()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
	if !IsConnected(g) {
		t.Error("empty graph should count as connected")
	}
	if d := Diameter(g); d != 0 {
		t.Errorf("empty graph diameter = %d, want 0", d)
	}
}

func TestSingleNode(t *testing.T) {
	g := NewBuilder(1).Graph()
	if g.N() != 1 || g.M() != 0 || g.Degree(0) != 0 {
		t.Fatalf("single node: %v", g)
	}
	if !IsConnected(g) {
		t.Error("single node should be connected")
	}
	if d := g.Dist(0, 0); d != 0 {
		t.Errorf("Dist(0,0) = %d, want 0", d)
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop
	g := b.Graph()
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing")
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop retained")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestHasEdgeOutOfRangeIsFalse(t *testing.T) {
	g := Path(3)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("out-of-range HasEdge should be false, not panic")
	}
}

func TestPortOf(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	for i, v := range g.Neighbors(0) {
		if p := g.PortOf(0, int(v)); p != i {
			t.Errorf("PortOf(0,%d) = %d, want %d", v, p, i)
		}
	}
	if p := g.PortOf(1, 2); p != -1 {
		t.Errorf("PortOf(non-edge) = %d, want -1", p)
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := prng.New(1)
	g := GNP(50, 0.1, rng)
	h := g.Clone()
	if !g.Equal(h) {
		t.Fatal("clone not equal")
	}
	if g.Equal(Path(g.N())) && g.M() != g.N()-1 {
		t.Fatal("Equal claims equality with a path")
	}
	if g.Equal(Path(3)) {
		t.Fatal("Equal across sizes")
	}
}

func TestRingPathCompleteStar(t *testing.T) {
	cases := []struct {
		name       string
		g          *Graph
		n, m, diam int
	}{
		{"ring8", Ring(8), 8, 8, 4},
		{"ring3", Ring(3), 3, 3, 1},
		{"ring2", Ring(2), 2, 1, 1},
		{"ring1", Ring(1), 1, 0, 0},
		{"path5", Path(5), 5, 4, 4},
		{"path1", Path(1), 1, 0, 0},
		{"k5", Complete(5), 5, 10, 1},
		{"k1", Complete(1), 1, 0, 0},
		{"star6", Star(6), 6, 5, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			if tc.g.N() != tc.n || tc.g.M() != tc.m {
				t.Fatalf("n=%d m=%d, want n=%d m=%d", tc.g.N(), tc.g.M(), tc.n, tc.m)
			}
			if d := Diameter(tc.g); d != tc.diam {
				t.Errorf("diameter = %d, want %d", d, tc.diam)
			}
		})
	}
}

func TestGridTorus(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 || g.M() != 3*3+2*4 {
		t.Fatalf("grid 3x4: n=%d m=%d", g.N(), g.M())
	}
	if d := Diameter(g); d != 2+3 {
		t.Errorf("grid diameter = %d, want 5", d)
	}
	tor := Torus(4, 4)
	if tor.N() != 16 || tor.M() != 32 {
		t.Fatalf("torus 4x4: n=%d m=%d", tor.N(), tor.M())
	}
	for v := 0; v < tor.N(); v++ {
		if tor.Degree(v) != 4 {
			t.Fatalf("torus node %d degree %d, want 4", v, tor.Degree(v))
		}
	}
	// Degenerate torus sizes collapse parallel edges.
	small := Torus(2, 2)
	if err := small.Validate(); err != nil {
		t.Fatalf("torus 2x2 invalid: %v", err)
	}
}

func TestGNPExtremes(t *testing.T) {
	rng := prng.New(7)
	if g := GNP(40, 0, rng); g.M() != 0 {
		t.Errorf("GNP p=0 has %d edges", g.M())
	}
	if g := GNP(10, 1, rng); g.M() != 45 {
		t.Errorf("GNP p=1 has %d edges, want 45", g.M())
	}
	if g := GNP(1, 0.5, rng); g.N() != 1 || g.M() != 0 {
		t.Error("GNP n=1 wrong")
	}
	if g := GNP(0, 0.5, rng); g.N() != 0 {
		t.Error("GNP n=0 wrong")
	}
}

func TestGNPEdgeDensity(t *testing.T) {
	// With n=400, p=0.05 the expected edge count is C(400,2)*0.05 = 3990.
	// Standard deviation is ~62; accept ±6σ.
	rng := prng.New(42)
	g := GNP(400, 0.05, rng)
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	want := 0.05 * 400 * 399 / 2
	if f := float64(g.M()); f < want-380 || f > want+380 {
		t.Errorf("GNP edge count %d too far from mean %.0f", g.M(), want)
	}
}

func TestGNPConnected(t *testing.T) {
	rng := prng.New(3)
	for _, n := range []int{2, 10, 100, 300} {
		g := GNPConnected(n, 1.2/float64(n), rng)
		if !IsConnected(g) {
			t.Errorf("GNPConnected(%d) not connected", n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid: %v", err)
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := prng.New(11)
	for _, n := range []int{1, 2, 3, 10, 100, 500} {
		g := RandomTree(n, rng)
		if g.N() != n {
			t.Fatalf("n=%d got %d", n, g.N())
		}
		if n >= 1 && g.M() != n-1 && n > 1 {
			t.Fatalf("tree on %d nodes has %d edges", n, g.M())
		}
		if !IsConnected(g) {
			t.Fatalf("tree on %d nodes disconnected", n)
		}
	}
}

func TestTreeFromPruferKnown(t *testing.T) {
	// Prüfer sequence (3,3,3,4) on 6 nodes gives star-ish tree:
	// leaves 0,1,2 attach to 3; 3 attaches to 4; 4 attaches to 5.
	g := TreeFromPrufer(6, []int{3, 3, 3, 4})
	want := [][2]int{{0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 5}}
	if g.M() != 5 {
		t.Fatalf("m=%d", g.M())
	}
	for _, e := range want {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
}

func TestTreeFromPruferPanics(t *testing.T) {
	for _, tc := range []struct {
		n   int
		seq []int
	}{
		{5, []int{0, 1}},  // wrong length
		{4, []int{0, 9}},  // entry out of range
		{4, []int{-1, 0}}, // negative entry
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TreeFromPrufer(%d, %v) did not panic", tc.n, tc.seq)
				}
			}()
			TreeFromPrufer(tc.n, tc.seq)
		}()
	}
}

func TestBalancedTree(t *testing.T) {
	g := BalancedTree(2, 3) // 1+2+4+8 = 15 nodes
	if g.N() != 15 || g.M() != 14 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !IsConnected(g) {
		t.Fatal("disconnected")
	}
	if d := Diameter(g); d != 6 {
		t.Errorf("diameter = %d, want 6", d)
	}
	if g := BalancedTree(3, 0); g.N() != 1 {
		t.Error("depth-0 tree should be a single node")
	}
}

func TestRingOfCliques(t *testing.T) {
	g := RingOfCliques(6, 5)
	if g.N() != 30 {
		t.Fatalf("n=%d", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("disconnected")
	}
	// Each clique contributes C(5,2)=10 edges, plus 6 ring edges.
	if g.M() != 6*10+6 {
		t.Errorf("m=%d, want 66", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	single := RingOfCliques(1, 4)
	if single.M() != 6 || !IsConnected(single) {
		t.Error("single clique wrong")
	}
	two := RingOfCliques(2, 3)
	if !IsConnected(two) {
		t.Error("two cliques should be joined")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := prng.New(5)
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {50, 3}, {8, 0}} {
		g := RandomRegular(tc.n, tc.d, rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid: %v", err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("RandomRegular(%d,%d): node %d degree %d", tc.n, tc.d, v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularPanicsInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd n*d did not panic")
		}
	}()
	RandomRegular(5, 3, prng.New(1))
}

// hypercube returns the dim-dimensional hypercube on 2^dim nodes, a
// regular fixture for the CSR invariant checks.
func hypercube(dim int) *Graph {
	n := 1 << dim
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Graph()
}

func TestHypercube(t *testing.T) {
	g := hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if d := Diameter(g); d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
}

func TestDisjoint(t *testing.T) {
	g := Disjoint(Ring(4), Path(3), Complete(3))
	if g.N() != 10 || g.M() != 4+2+3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	_, k := Components(g)
	if k != 3 {
		t.Errorf("components = %d, want 3", k)
	}
	// Edges must not cross between parts.
	if g.HasEdge(3, 4) || g.HasEdge(6, 7) {
		t.Error("cross-part edge found")
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for v, d := range dist {
		if d != v {
			t.Errorf("dist[%d] = %d, want %d", v, d, v)
		}
	}
	dist = g.BFS(2)
	want := []int{2, 1, 0, 1, 2}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := Disjoint(Path(2), Path(2))
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Errorf("unreachable nodes got distances %v", dist)
	}
	if d := g.Dist(0, 3); d != Unreachable {
		t.Errorf("Dist across components = %d", d)
	}
}

func TestMultiBFSOwner(t *testing.T) {
	g := Path(7)
	dist, owner := g.MultiBFSOwner([]int{0, 6})
	wantDist := []int{0, 1, 2, 3, 2, 1, 0}
	for v := range wantDist {
		if dist[v] != wantDist[v] {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], wantDist[v])
		}
	}
	if owner[1] != 0 || owner[5] != 6 {
		t.Errorf("owner = %v", owner)
	}
	// Every owner is one of the sources.
	for v, o := range owner {
		if o != 0 && o != 6 {
			t.Errorf("owner[%d] = %d", v, o)
		}
	}
}

func TestMultiBFSEmptySources(t *testing.T) {
	g := Ring(4)
	dist := g.MultiBFS(nil)
	for v, d := range dist {
		if d != Unreachable {
			t.Errorf("dist[%d] = %d with no sources", v, d)
		}
	}
}

func TestComponents(t *testing.T) {
	g := Disjoint(Ring(3), Ring(3), Path(1))
	comp, k := Components(g)
	if k != 3 {
		t.Fatalf("k=%d", k)
	}
	if comp[0] != comp[1] || comp[0] != comp[2] {
		t.Error("ring 1 split")
	}
	if comp[0] == comp[3] || comp[3] == comp[6] {
		t.Error("components merged")
	}
}

func TestBFSWithin(t *testing.T) {
	g := Grid(5, 5)
	nodes, dist := g.BFSWithin(12, 2) // center of the grid
	if len(nodes) != len(dist) {
		t.Fatal("length mismatch")
	}
	// Ball of radius 2 around the center of a 5x5 grid: 13 nodes (diamond).
	if len(nodes) != 13 {
		t.Errorf("|B(center,2)| = %d, want 13", len(nodes))
	}
	for i, v := range nodes {
		if want := g.Dist(12, v); want != dist[i] {
			t.Errorf("dist to %d = %d, want %d", v, dist[i], want)
		}
		if dist[i] > 2 {
			t.Errorf("node %d at distance %d > radius", v, dist[i])
		}
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := Star(7)
	if e := g.Eccentricity(0); e != 1 {
		t.Errorf("center eccentricity = %d", e)
	}
	if e := g.Eccentricity(1); e != 2 {
		t.Errorf("leaf eccentricity = %d", e)
	}
	if d := Diameter(g); d != 2 {
		t.Errorf("diameter = %d", d)
	}
}

func TestPowerOfPath(t *testing.T) {
	g := Path(6)
	g2 := Power(g, 2)
	// P6^2: each node connects to nodes within 2 hops.
	if !g2.HasEdge(0, 2) || !g2.HasEdge(3, 5) || g2.HasEdge(0, 3) {
		t.Error("P6^2 edges wrong")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	g1 := Power(g, 1)
	if !g1.Equal(g) {
		t.Error("G^1 != G")
	}
}

func TestPowerDistanceContractionProperty(t *testing.T) {
	// Property: dist_{G^r}(u,v) = ceil(dist_G(u,v)/r) on connected graphs.
	rng := prng.New(99)
	for trial := 0; trial < 10; trial++ {
		g := GNPConnected(40, 0.08, rng)
		r := 2 + trial%3
		gr := Power(g, r)
		u, v := rng.Intn(40), rng.Intn(40)
		dg := g.Dist(u, v)
		dgr := gr.Dist(u, v)
		want := (dg + r - 1) / r
		if dgr != want {
			t.Fatalf("trial %d: dist_G=%d r=%d dist_Gr=%d want %d", trial, dg, r, dgr, want)
		}
	}
}

func TestPowerPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Power(g, 0) did not panic")
		}
	}()
	Power(Path(3), 0)
}

func TestInducedSubgraph(t *testing.T) {
	g := Ring(6)
	sub, orig := InducedSubgraph(g, []int{0, 1, 2, 4})
	if sub.N() != 4 {
		t.Fatalf("n=%d", sub.N())
	}
	// Edges {0,1},{1,2} survive; 4 is isolated among chosen nodes.
	if sub.M() != 2 {
		t.Errorf("m=%d, want 2", sub.M())
	}
	if orig[3] != 4 {
		t.Errorf("origOf[3] = %d", orig[3])
	}
	if sub.Degree(3) != 0 {
		t.Error("node 4 should be isolated in subgraph")
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	InducedSubgraph(Ring(4), []int{0, 0})
}

func TestContract(t *testing.T) {
	g := Path(6)
	part := []int{0, 0, 1, 1, 2, 2}
	cg := Contract(g, part, 3)
	if cg.N() != 3 || cg.M() != 2 {
		t.Fatalf("cluster graph n=%d m=%d", cg.N(), cg.M())
	}
	if !cg.HasEdge(0, 1) || !cg.HasEdge(1, 2) || cg.HasEdge(0, 2) {
		t.Error("cluster adjacency wrong")
	}
	// Unclustered nodes (negative part) are ignored.
	part2 := []int{0, 0, -1, -1, 1, 1}
	cg2 := Contract(g, part2, 2)
	if cg2.M() != 0 {
		t.Errorf("contract with gap: m=%d, want 0", cg2.M())
	}
}

func TestDegreeStats(t *testing.T) {
	g := Star(5)
	if g.MaxDegree() != 4 || g.MinDegree() != 1 {
		t.Errorf("max=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
	if got := g.AvgDegree(); got != 2*4.0/5.0 {
		t.Errorf("avg=%v", got)
	}
	empty := NewBuilder(0).Graph()
	if empty.MaxDegree() != 0 || empty.MinDegree() != 0 || empty.AvgDegree() != 0 {
		t.Error("empty graph degree stats")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := Complete(4)
	count := 0
	g.Edges(func(u, v int) {
		if u >= v {
			t.Errorf("edge order violated: (%d,%d)", u, v)
		}
		count++
	})
	if count != 6 {
		t.Errorf("iterated %d edges, want 6", count)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Path(3)
	// Corrupt: rewrite node 0's only neighbor from 1 to 2 in the flat CSR
	// array, making the adjacency asymmetric.
	g.adj[0] = 2
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted asymmetric adjacency")
	}
}

func TestGraphPropertiesQuick(t *testing.T) {
	// Property: every generated GNP graph validates, and BFS distances obey
	// the triangle-ish property dist(u,w) <= dist(u,v)+1 for every edge {v,w}.
	f := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%60) + 2
		p := float64(pRaw%100) / 100
		g := GNP(n, p, prng.New(seed))
		if g.Validate() != nil {
			return false
		}
		dist := g.BFS(0)
		ok := true
		g.Edges(func(v, w int) {
			dv, dw := dist[v], dist[w]
			if dv == Unreachable || dw == Unreachable {
				if dv != dw {
					ok = false
				}
				return
			}
			if dw > dv+1 || dv > dw+1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPruferRoundTripQuick(t *testing.T) {
	// Property: every random Prüfer sequence decodes to a tree (n-1 edges,
	// connected).
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 3
		rng := prng.New(seed)
		seq := make([]int, n-2)
		for i := range seq {
			seq[i] = rng.Intn(n)
		}
		g := TreeFromPrufer(n, seq)
		return g.M() == n-1 && IsConnected(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestGNPDeterminism(t *testing.T) {
	a := GNP(100, 0.05, prng.New(123))
	b := GNP(100, 0.05, prng.New(123))
	if !a.Equal(b) {
		t.Error("GNP not deterministic for equal seeds")
	}
}

func TestStringSummary(t *testing.T) {
	s := Ring(5).String()
	if s != "graph{n=5 m=5 Δ=2}" {
		t.Errorf("String() = %q", s)
	}
}

func TestPowerLaw(t *testing.T) {
	rng := prng.New(7)
	g := PowerLaw(500, 3, rng)
	if g.N() != 500 {
		t.Fatalf("n = %d", g.N())
	}
	// m attachments per arriving node plus the m-star seed.
	if want := 3*(500-4) + 3; g.M() != want {
		t.Errorf("m = %d, want %d", g.M(), want)
	}
	if !IsConnected(g) {
		t.Error("power-law graph disconnected")
	}
	if g.MinDegree() < 3 {
		t.Errorf("min degree = %d, want >= 3", g.MinDegree())
	}
	// The hub regime: the maximum degree should far exceed the average.
	if float64(g.MaxDegree()) < 3*g.AvgDegree() {
		t.Errorf("max degree %d not hub-like (avg %.1f)", g.MaxDegree(), g.AvgDegree())
	}

	// Tiny n falls back to a clique.
	if k := PowerLaw(3, 3, prng.New(1)); k.M() != 3 {
		t.Errorf("clique fallback m = %d, want 3", k.M())
	}
}

func TestPowerLawDeterminism(t *testing.T) {
	a := PowerLaw(200, 2, prng.New(99))
	b := PowerLaw(200, 2, prng.New(99))
	if !a.Equal(b) {
		t.Error("PowerLaw not deterministic for equal seeds")
	}
}
