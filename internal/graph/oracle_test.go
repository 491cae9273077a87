package graph

import (
	"fmt"
	"slices"
	"testing"

	"randlocal/internal/prng"
)

// The CSR assembly the builders used before they shared csrfile.Rows and
// csrfile.ReversePorts, kept as the test oracle: two stable counting-sort
// passes over both directions of every edge, then a dedup while writing
// the rows. It shares no code with the core it checks.

// fromHalfEdges builds a CSR graph from packed directed half-edges (each
// undirected edge present in both directions, duplicates allowed).
func fromHalfEdges(n int, pairs []uint64) *Graph {
	if int64(len(pairs)) > maxHalfEdges {
		panic(fmt.Sprintf("graph: %d half-edges exceed the int32 CSR index limit %d; rev []int32 cannot address them",
			len(pairs), maxHalfEdges))
	}
	// Two stable counting-sort passes — by v, then by u — leave the
	// half-edges in (u, v) lexicographic order, so rows come out sorted and
	// duplicates sit adjacent.
	byV := make([]uint64, len(pairs))
	count := make([]int64, n+1)
	for _, p := range pairs {
		count[uint32(p)+1]++
	}
	for i := 1; i <= n; i++ {
		count[i] += count[i-1]
	}
	for _, p := range pairs {
		k := uint32(p)
		byV[count[k]] = p
		count[k]++
	}
	sorted := make([]uint64, len(pairs))
	for i := range count {
		count[i] = 0
	}
	for _, p := range byV {
		count[(p>>32)+1]++
	}
	for i := 1; i <= n; i++ {
		count[i] += count[i-1]
	}
	for _, p := range byV {
		k := p >> 32
		sorted[count[k]] = p
		count[k]++
	}
	// Dedup while writing the flat neighbor array and per-node row sizes.
	off := make([]int64, n+1)
	adj := make([]int32, 0, len(sorted))
	prev := ^uint64(0) // impossible pair: u == v is never recorded
	for _, p := range sorted {
		if p == prev {
			continue
		}
		prev = p
		off[(p>>32)+1]++
		adj = append(adj, int32(uint32(p)))
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	return &Graph{off: off, adj: adj, rev: reversePorts(off, adj), edges: len(adj) / 2}
}

// reversePorts computes the reverse-port table of CSR rows that are sorted
// and free of duplicates, in O(m): scanning half-edges (u → w) in global
// order visits, for each fixed w, the sources u in ascending order — exactly
// w's own row order — so a per-node cursor hands out the reverse positions.
func reversePorts(off []int64, adj []int32) []int32 {
	n := len(off) - 1
	rev := make([]int32, len(adj))
	cur := make([]int32, n)
	for u := 0; u < n; u++ {
		for i := off[u]; i < off[u+1]; i++ {
			w := adj[i]
			rev[i] = int32(off[w]) + cur[w]
			cur[w]++
		}
	}
	return rev
}

// oracleGraph builds edges (self-loops dropped, duplicates kept) with the
// counting-sort oracle.
func oracleGraph(n int, edges [][2]int) *Graph {
	var pairs []uint64
	for _, e := range edges {
		if u, v := e[0], e[1]; u != v {
			pairs = append(pairs, uint64(u)<<32|uint64(v), uint64(v)<<32|uint64(u))
		}
	}
	return fromHalfEdges(n, pairs)
}

// sameCSR reports whether g and h have identical off, adj and rev arrays
// and edge counts.
func sameCSR(g, h *Graph) bool {
	goff, gadj, grev := g.CSR()
	hoff, hadj, hrev := h.CSR()
	return slices.Equal(goff, hoff) && slices.Equal(gadj, hadj) && slices.Equal(grev, hrev) && g.M() == h.M()
}

// oracleCases are edge lists on which Builder must match the oracle: n = 0
// and n = 1, empty rows, self-loops, duplicates in both orientations, a
// hub of degree 100 whose edges recur among self-loops, and random
// multigraphs.
type oracleCase struct {
	name  string
	n     int
	edges [][2]int
}

var oracleCases = func() []oracleCase {
	cases := []oracleCase{
		{"n0", 0, nil},
		{"n1-selfloop", 1, [][2]int{{0, 0}}},
		{"empty-rows", 6, [][2]int{{1, 4}}},
		{"duplicates-both-orientations", 4, [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 3}, {3, 2}, {3, 2}, {1, 2}}},
		{"only-selfloops", 3, [][2]int{{0, 0}, {1, 1}, {2, 2}}},
	}
	var hub [][2]int
	for rep := 0; rep < 3; rep++ {
		for w := 100; w >= 1; w-- {
			if rep%2 == 0 {
				hub = append(hub, [2]int{0, w})
			} else {
				hub = append(hub, [2]int{w, 0})
			}
			if w%10 == 0 {
				hub = append(hub, [2]int{0, 0}, [2]int{w, w})
			}
		}
	}
	cases = append(cases, oracleCase{"hub-degree-100", 120, hub})
	rng := prng.New(11)
	for _, c := range []struct{ n, count int }{{2, 5}, {9, 40}, {64, 300}, {500, 200}} {
		edges := make([][2]int, c.count)
		for i := range edges {
			edges[i] = [2]int{rng.Intn(c.n), rng.Intn(c.n)}
		}
		cases = append(cases, oracleCase{fmt.Sprintf("random-n%d-m%d", c.n, c.count), c.n, edges})
	}
	return cases
}()

// TestBuilderMatchesOracle holds Builder, and so csrfile.Rows and
// csrfile.ReversePorts on heap slices, to the counting-sort oracle array
// for array.
func TestBuilderMatchesOracle(t *testing.T) {
	for _, c := range oracleCases {
		want := oracleGraph(c.n, c.edges)
		got := FromEdges(c.n, c.edges)
		if !sameCSR(got, want) {
			t.Errorf("%s: Builder graph %v differs from the oracle's %v", c.name, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestRandomRegularMatchesOracle holds RandomRegular to the oracle built
// from the same repaired pairing.
func TestRandomRegularMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		n, d int
		seed uint64
	}{{1, 0, 1}, {4, 2, 1}, {10, 3, 2}, {64, 32, 3}, {1000, 3, 4}, {1 << 10, 16, 5}} {
		var edges [][2]int
		for _, e := range regularEdges(c.n, c.d, prng.New(c.seed)) {
			edges = append(edges, [2]int{int(e >> 32), int(uint32(e))})
		}
		got := RandomRegular(c.n, c.d, prng.New(c.seed))
		if want := oracleGraph(c.n, edges); !sameCSR(got, want) {
			t.Errorf("RandomRegular(%d, %d, seed %d) = %v differs from the oracle's %v", c.n, c.d, c.seed, got, want)
		}
	}
}
