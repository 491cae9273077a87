package graph

import (
	"fmt"
	"testing"

	"randlocal/internal/prng"
)

// diameterAllSources is the one-BFS-per-node diameter the bounding search
// replaced: the reference it is held to.
func diameterAllSources(g *Graph) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		diam = max(diam, g.Eccentricity(v))
	}
	return diam
}

// diameterCases covers the shapes whose eccentricities the bounds handle
// differently: no nodes, one node, several components, all-equal
// eccentricities (ring), long paths and trees, a hub, grids, sparse random
// graphs below the connectivity threshold and connected random graphs.
func diameterCases() []struct {
	name string
	g    *Graph
} {
	return []struct {
		name string
		g    *Graph
	}{
		{"empty", NewBuilder(0).Graph()},
		{"one", NewBuilder(1).Graph()},
		{"two", Path(2)},
		{"disjoint", Disjoint(Ring(7), Path(12), Star(5), NewBuilder(3).Graph())},
		{"ring100", Ring(100)},
		{"ring101", Ring(101)},
		{"path60", Path(60)},
		{"star40", Star(40)},
		{"grid9x13", Grid2D(9, 13, false)},
		{"grid9x13diag", Grid2D(9, 13, true)},
		{"randomTree300", RandomTree(300, prng.New(1))},
		{"balancedTree3x5", BalancedTree(3, 5)},
		{"gnpSparse", GNP(400, 0.5/400, prng.New(2))},
		{"gnpBelowThreshold", GNP(500, 3.0/500, prng.New(3))},
		{"gnpConnected", GNPConnected(800, 4.0/800, prng.New(4))},
		{"regular3", RandomRegular(600, 3, prng.New(5))},
		{"regular8", RandomRegular(256, 8, prng.New(6))},
		{"ringOfCliques", RingOfCliques(9, 5)},
	}
}

func TestDiameterMatchesAllSources(t *testing.T) {
	for _, c := range diameterCases() {
		if got, want := Diameter(c.g), diameterAllSources(c.g); got != want {
			t.Errorf("%s: Diameter = %d, all-sources reference %d", c.name, got, want)
		}
	}
}

// piecesReference groups the nodes by label, builds each group's induced
// subgraph and reports, per label, its component count and the largest
// diameter of a component.
func piecesReference(g *Graph, label []int32) (pieces, diam map[int32]int) {
	groups := map[int32][]int{}
	for v, c := range label {
		groups[c] = append(groups[c], v)
	}
	pieces, diam = map[int32]int{}, map[int32]int{}
	for c, members := range groups {
		sub, _ := InducedSubgraph(g, members)
		_, pieces[c] = Components(sub)
		diam[c] = diameterAllSources(sub)
	}
	return pieces, diam
}

// checkPieces holds Pieces on g under label to the induced-subgraph
// reference: the per-label piece counts and diameters, every node returned
// exactly once, and each piece starting at its smallest node, in order.
func checkPieces(t *testing.T, name string, g *Graph, label []int32) {
	t.Helper()
	wantPieces, wantDiam := piecesReference(g, label)
	gotPieces, gotDiam := map[int32]int{}, map[int32]int{}
	returned := make([]bool, g.N())
	s, prevFirst := NewPieces(g, label), -1
	for piece := s.Next(); piece != nil; piece = s.Next() {
		first := int(piece[0])
		if first <= prevFirst {
			t.Fatalf("%s: piece starting at %d follows one starting at %d", name, first, prevFirst)
		}
		prevFirst = first
		for _, v := range piece {
			if returned[v] || int(v) < first || label[v] != label[first] {
				t.Fatalf("%s: node %d wrongly in the piece of %d", name, v, first)
			}
			returned[v] = true
		}
		c := label[first]
		gotPieces[c]++
		gotDiam[c] = max(gotDiam[c], s.Diameter())
	}
	for v, ok := range returned {
		if !ok {
			t.Fatalf("%s: node %d never returned", name, v)
		}
	}
	for c := range wantPieces {
		if gotPieces[c] != wantPieces[c] || gotDiam[c] != wantDiam[c] {
			t.Errorf("%s: label %d has %d pieces of diameter %d, reference %d of %d",
				name, c, gotPieces[c], gotDiam[c], wantPieces[c], wantDiam[c])
		}
	}
}

func TestPiecesMatchInducedSubgraphs(t *testing.T) {
	for _, c := range diameterCases() {
		n := c.g.N()
		one := make([]int32, n)
		checkPieces(t, c.name+"/one-label", c.g, one)
		// Balls around a few BFS centers: mostly connected labels, like a
		// decomposition's clusters.
		centers := []int{}
		for v := 0; v < n; v += 37 {
			centers = append(centers, v)
		}
		balls := make([]int32, n)
		if len(centers) > 0 {
			_, owner := c.g.MultiBFSOwner(centers)
			for v, o := range owner {
				balls[v] = int32(o)
			}
		}
		checkPieces(t, c.name+"/balls", c.g, balls)
		// Random labels: many disconnected pieces per label.
		rng := prng.New(uint64(n))
		random := make([]int32, n)
		for v := range random {
			random[v] = int32(rng.Intn(3))
		}
		checkPieces(t, c.name+"/random", c.g, random)
	}
}

// FuzzDiameter holds Diameter to the all-sources reference, and Pieces
// under a label array to the induced-subgraph reference, on small edge
// lists: n is the node count (taken mod 65), every two bytes of edges are
// one edge (self-loops and repeats are dropped), and when labels is not
// empty node v gets label labels[v % len(labels)] % 4.
func FuzzDiameter(f *testing.F) {
	for _, c := range diameterCases() {
		if c.g.N() > 64 {
			continue
		}
		var edges []byte
		c.g.Edges(func(u, v int) { edges = append(edges, byte(u), byte(v)) })
		f.Add(uint8(c.g.N()), edges, []byte{})
		f.Add(uint8(c.g.N()), edges, []byte{0, 0, 1, 2, 1})
	}
	f.Fuzz(func(t *testing.T, n uint8, edges, labels []byte) {
		nodes := int(n) % 65
		b := NewBuilder(nodes)
		for i := 0; nodes > 0 && i+1 < len(edges); i += 2 {
			u, v := int(edges[i])%nodes, int(edges[i+1])%nodes
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Graph()
		if got, want := Diameter(g), diameterAllSources(g); got != want {
			t.Fatalf("Diameter = %d, all-sources reference %d", got, want)
		}
		if len(labels) > 0 {
			label := make([]int32, nodes)
			for v := range label {
				label[v] = int32(labels[v%len(labels)] % 4)
			}
			checkPieces(t, "fuzz", g, label)
		}
	})
}

// BenchmarkDiameter measures the exact diameter of daemon-mix's graph file
// shape: a 2^11-node connected gnp at p = 4/n.
func BenchmarkDiameter(b *testing.B) {
	g := GNPConnected(1<<11, 4.0/(1<<11), prng.New(1))
	for b.Loop() {
		Diameter(g)
	}
}

// BenchmarkRandomRegular measures RandomRegular at daemon-mix's
// coloring-regular shape and at 2^18 nodes of degree 16; the second row is
// skipped under -short.
func BenchmarkRandomRegular(b *testing.B) {
	for _, c := range []struct{ n, d int }{{1 << 14, 4}, {1 << 18, 16}} {
		b.Run(fmt.Sprintf("n=%d/d=%d", c.n, c.d), func(b *testing.B) {
			if testing.Short() && c.n > 1<<14 {
				b.Skip("2^18-node build skipped under -short")
			}
			b.ReportAllocs()
			seed := uint64(0)
			for b.Loop() {
				seed++
				RandomRegular(c.n, c.d, prng.New(seed))
			}
		})
	}
}

// BenchmarkGNPConnected measures GNPConnected at daemon-mix's lubybit-gnp
// (2^15 nodes) and luby-gnp (2^13) shapes, p = 4/n, and at lubybit-file's
// 2^18 nodes, p = 6/n; the last row is skipped under -short.
func BenchmarkGNPConnected(b *testing.B) {
	for _, c := range []struct {
		n   int
		deg float64
	}{{1 << 15, 4}, {1 << 13, 4}, {1 << 18, 6}} {
		b.Run(fmt.Sprintf("n=%d/np=%g", c.n, c.deg), func(b *testing.B) {
			if testing.Short() && c.n > 1<<15 {
				b.Skip("2^18-node build skipped under -short")
			}
			b.ReportAllocs()
			seed := uint64(0)
			for b.Loop() {
				seed++
				GNPConnected(c.n, c.deg/float64(c.n), prng.New(seed))
			}
		})
	}
}
