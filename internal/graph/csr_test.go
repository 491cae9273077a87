package graph

// Invariant tests for the flat compressed-sparse-row core: every generator
// must produce a graph whose offsets, neighbor rows and reverse-port table
// satisfy the CSR contract, ports must round-trip through the precomputed
// reverse table, and the Builder must agree with FromEdges no matter how
// edges are ordered or duplicated.

import (
	"testing"

	"randlocal/internal/prng"
)

// checkCSR asserts the low-level CSR contract directly on the flat arrays,
// beyond what Validate (which is itself under test here) reports.
func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	off, adj, rev := g.CSR()
	n := g.N()
	if n > 0 {
		if off[0] != 0 || off[n] != int64(len(adj)) {
			t.Fatalf("offsets span [%d, %d] for %d half-edges", off[0], off[n], len(adj))
		}
	}
	if len(rev) != len(adj) {
		t.Fatalf("rev has %d entries, adj has %d", len(rev), len(adj))
	}
	if len(adj) != 2*g.M() {
		t.Fatalf("%d half-edges for M=%d", len(adj), g.M())
	}
	for v := 0; v < n; v++ {
		row := g.Neighbors(v)
		if len(row) != g.Degree(v) {
			t.Fatalf("node %d: row length %d, degree %d", v, len(row), g.Degree(v))
		}
		for p, w := range row {
			i := off[v] + int64(p)
			j := rev[i]
			if adj[j] != int32(v) {
				t.Fatalf("half-edge %d: reverse %d points at %d, want %d", i, j, adj[j], v)
			}
			if rev[j] != int32(i) {
				t.Fatalf("half-edge %d: reverse of reverse is %d", i, rev[j])
			}
			// Port round-trips: through the reverse table and through the
			// binary-search PortOf.
			q := g.ReversePort(v, p)
			if got := g.Neighbors(int(w))[q]; got != int32(v) {
				t.Fatalf("ReversePort(%d,%d)=%d lands on %d", v, p, q, got)
			}
			if g.PortOf(int(w), v) != q {
				t.Fatalf("PortOf(%d,%d)=%d, ReversePort says %d", w, v, g.PortOf(int(w), v), q)
			}
			if g.PortOf(v, int(w)) != p {
				t.Fatalf("PortOf(%d,%d)=%d, want %d", v, w, g.PortOf(v, int(w)), p)
			}
		}
	}
}

func TestCSRInvariantsAcrossGenerators(t *testing.T) {
	rng := prng.New(42)
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"empty", NewBuilder(0).Graph()},
		{"singleton", NewBuilder(1).Graph()},
		{"ring", Ring(17)},
		{"path", Path(9)},
		{"complete", Complete(11)},
		{"star", Star(12)},
		{"grid", Grid(5, 7)},
		{"grid2d-diag", Grid2D(5, 7, true)},
		{"torus", Torus(4, 6)},
		{"gnp", GNP(80, 0.1, rng)},
		{"tree", RandomTree(60, rng)},
		{"regular", RandomRegular(30, 4, rng)},
		{"powerlaw", PowerLaw(70, 3, rng)},
		{"hypercube", hypercube(5)},
		{"cliques", RingOfCliques(5, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkCSR(t, tc.g) })
	}
}

// TestFromEdgesBuilderEquivalence feeds the same random edge set to
// FromEdges and to a Builder in scrambled order with duplicates and
// self-loops sprinkled in; the resulting graphs must be identical.
func TestFromEdgesBuilderEquivalence(t *testing.T) {
	rng := prng.New(7)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		want := map[[2]int]bool{}
		var edges [][2]int
		for k := 0; k < rng.Intn(3*n); k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			edges = append(edges, [2]int{u, v})
			if u != v {
				if u > v {
					u, v = v, u
				}
				want[[2]int{u, v}] = true
			}
		}
		ref := FromEdges(n, edges)

		b := NewBuilder(n)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			b.AddEdge(e[1], e[0]) // reversed endpoints: {u,v} == {v,u}
			if rng.Intn(2) == 0 {
				b.AddEdge(e[0], e[1]) // duplicate
			}
		}
		got := b.Graph()

		if !ref.Equal(got) || !got.Equal(ref) {
			t.Fatalf("trial %d: builder and FromEdges disagree: %v vs %v", trial, ref, got)
		}
		if ref.M() != len(want) {
			t.Fatalf("trial %d: M=%d, want %d", trial, ref.M(), len(want))
		}
		checkCSR(t, got)
		for e := range want {
			if !got.HasEdge(e[0], e[1]) || !got.HasEdge(e[1], e[0]) {
				t.Fatalf("trial %d: missing edge %v", trial, e)
			}
		}
	}
}

// TestBuilderReuse checks that finalizing a builder, adding more edges, and
// finalizing again yields two independent immutable graphs.
func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g1 := b.Graph()
	b.AddEdge(2, 3)
	g2 := b.Graph()
	if g1.M() != 1 || g2.M() != 2 {
		t.Fatalf("M: %d then %d, want 1 then 2", g1.M(), g2.M())
	}
	if g1.HasEdge(2, 3) {
		t.Error("first graph mutated by later AddEdge")
	}
	checkCSR(t, g1)
	checkCSR(t, g2)
}

func TestRingValidation(t *testing.T) {
	for _, tc := range []struct{ n, m, maxDeg int }{
		{0, 0, 0}, {1, 0, 0}, {2, 1, 1}, {3, 3, 2}, {10, 10, 2},
	} {
		g := Ring(tc.n)
		if g.N() != tc.n || g.M() != tc.m || g.MaxDegree() != tc.maxDeg {
			t.Errorf("Ring(%d): n=%d m=%d Δ=%d, want n=%d m=%d Δ=%d",
				tc.n, g.N(), g.M(), g.MaxDegree(), tc.n, tc.m, tc.maxDeg)
		}
		checkCSR(t, g)
		if tc.n >= 3 {
			if !IsConnected(g) || g.MinDegree() != 2 {
				t.Errorf("Ring(%d) not 2-regular connected", tc.n)
			}
			if Diameter(g) != tc.n/2 {
				t.Errorf("Ring(%d) diameter %d, want %d", tc.n, Diameter(g), tc.n/2)
			}
		}
	}
}

func TestGrid2DValidation(t *testing.T) {
	const rows, cols = 6, 9
	plain := Grid2D(rows, cols, false)
	if !plain.Equal(Grid(rows, cols)) {
		t.Error("Grid2D without diagonals differs from Grid")
	}
	checkCSR(t, plain)

	king := Grid2D(rows, cols, true)
	checkCSR(t, king)
	wantM := rows*(cols-1) + (rows-1)*cols + 2*(rows-1)*(cols-1)
	if king.N() != rows*cols || king.M() != wantM {
		t.Errorf("king graph: n=%d m=%d, want n=%d m=%d", king.N(), king.M(), rows*cols, wantM)
	}
	if king.MaxDegree() != 8 || king.MinDegree() != 3 {
		t.Errorf("king graph degrees: Δ=%d δ=%d, want 8/3", king.MaxDegree(), king.MinDegree())
	}
	if !IsConnected(king) {
		t.Error("king graph disconnected")
	}
	// An interior node must see all 8 surrounding cells.
	v := 2*cols + 3
	for _, d := range []int{-cols - 1, -cols, -cols + 1, -1, 1, cols - 1, cols, cols + 1} {
		if !king.HasEdge(v, v+d) {
			t.Errorf("interior node %d missing neighbor %d", v, v+d)
		}
	}
	// Degenerate shapes.
	checkCSR(t, Grid2D(1, 8, true))
	checkCSR(t, Grid2D(8, 1, true))
	checkCSR(t, Grid2D(0, 5, true))
	if Grid2D(1, 8, true).M() != 7 {
		t.Error("1×8 king graph must be a path")
	}
}
