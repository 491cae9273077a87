// Package graph provides the undirected-graph substrate used by every
// simulator and algorithm in this repository: a compact adjacency
// representation, generators for the graph families that the paper's
// constructions are exercised on, traversals, graph powers, and the
// cluster-graph contraction used by network-decomposition algorithms.
//
// Nodes are identified by dense indices 0..N()-1. The separate notion of a
// (possibly adversarial) Θ(log n)-bit identifier lives in package sim, which
// assigns identifiers on top of these indices.
//
// # Memory layout
//
// Graphs are stored in compressed-sparse-row (CSR) form: one flat offsets
// array and one flat neighbor array, so iterating a neighborhood — the inner
// loop of every simulator round and every traversal — is a sequential scan
// over contiguous memory rather than a pointer chase through per-node
// slices. The reverse-port table (for every directed half-edge (v, p), the
// flat index of the opposite half-edge) is a property of the graph, not of a
// simulation run, so it is precomputed here once per graph and shared by
// every engine that runs on it.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"randlocal/internal/graph/csrfile"
)

// Graph is an immutable simple undirected graph in compressed-sparse-row
// form. The zero value is the empty graph with no nodes. Construct graphs
// with a Builder or a generator.
//
// The node indices of every undirected edge {u, v} appear twice in adj, once
// as the directed half-edge u→v and once as v→u. Half-edge i = off[v] + p is
// "port p of node v" — exactly the port numbering the CONGEST/LOCAL node
// programs use to address their neighbors.
type Graph struct {
	off   []int64 // off[v]..off[v+1] frames v's neighbor row in adj; len N()+1
	adj   []int32 // flat neighbor array; every row sorted strictly ascending
	rev   []int32 // rev[i] = flat index of the reverse half-edge of i
	edges int
}

// ErrNodeRange is returned when a node index is outside [0, N()).
var ErrNodeRange = errors.New("graph: node index out of range")

// N returns the number of nodes.
func (g *Graph) N() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbor row of v as a subslice of the flat
// CSR array: no allocation, no copy. The returned slice is owned by the
// graph and must not be modified. The element at position p is the node
// behind port p of v.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// CSR exposes the graph's flat arrays — offsets, neighbors, and the
// reverse-half-edge table — for engines that index per-port state by
// half-edge. All three slices are owned by the graph and must be treated as
// read-only. rev satisfies adj[rev[off[v]+p]] == v for every port p of every
// node v: the reverse half-edge of "port p of v" is the port of v in the
// neighbor's own row.
func (g *Graph) CSR() (off []int64, adj, rev []int32) { return g.off, g.adj, g.rev }

// HasEdge reports whether {u, v} is an edge. It runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return false
	}
	return g.PortOf(u, v) >= 0
}

// PortOf returns the index of neighbor v in u's neighbor row, or -1 when
// {u, v} is not an edge. Ports are how CONGEST/LOCAL node programs address
// their neighbors without knowing global indices (the KT0 assumption).
func (g *Graph) PortOf(u, v int) int {
	if v < 0 || v >= g.N() {
		return -1
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	if i < len(ns) && ns[i] == int32(v) {
		return i
	}
	return -1
}

// ReversePort returns, for port p of node u, the port of u in that
// neighbor's own row: Neighbors(w)[ReversePort(u, p)] == u for
// w = Neighbors(u)[p]. It is an O(1) lookup in the precomputed table.
func (g *Graph) ReversePort(u, p int) int {
	i := g.off[u] + int64(p)
	return int(int64(g.rev[i]) - g.off[g.adj[i]])
}

// MaxDegree returns the maximum degree Δ, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	d := int64(0)
	for v := 0; v+1 < len(g.off); v++ {
		if deg := g.off[v+1] - g.off[v]; deg > d {
			d = deg
		}
	}
	return int(d)
}

// MinDegree returns the minimum degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	d := g.off[1] - g.off[0]
	for v := 1; v < n; v++ {
		if deg := g.off[v+1] - g.off[v]; deg < d {
			d = deg
		}
	}
	return int(d)
}

// AvgDegree returns the average degree 2M/N, or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.N())
}

// Edges calls fn once per edge with u < v. Iteration order is deterministic.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u+1 < len(g.off); u++ {
		for _, w := range g.adj[g.off[u]:g.off[u+1]] {
			if v := int(w); u < v {
				fn(u, v)
			}
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return &Graph{
		off:   append([]int64(nil), g.off...),
		adj:   append([]int32(nil), g.adj...),
		rev:   append([]int32(nil), g.rev...),
		edges: g.edges,
	}
}

// Equal reports whether g and h have identical node sets and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for v := 0; v < g.N(); v++ {
		if g.off[v+1]-g.off[v] != h.off[v+1]-h.off[v] {
			return false
		}
	}
	for i := range g.adj {
		if g.adj[i] != h.adj[i] {
			return false
		}
	}
	return true
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.N(), g.M(), g.MaxDegree())
}

// Validate checks internal invariants: well-formed CSR offsets, sorted
// neighbor rows without duplicates or self-loops, symmetric adjacency, a
// consistent edge count, and a reverse-port table that round-trips.
// Generators and Builder always produce valid graphs; Validate exists for
// tests and for defensive checks after hand-built graphs.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.off) != 0 && g.off[0] != 0 {
		return fmt.Errorf("graph: offsets do not start at 0")
	}
	for v := 0; v < n; v++ {
		if g.off[v+1] < g.off[v] {
			return fmt.Errorf("graph: offsets decrease at node %d", v)
		}
	}
	if n > 0 && g.off[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offsets end at %d, adjacency has %d half-edges", g.off[n], len(g.adj))
	}
	if len(g.rev) != len(g.adj) {
		return fmt.Errorf("graph: reverse-port table has %d entries for %d half-edges", len(g.rev), len(g.adj))
	}
	for u := 0; u < n; u++ {
		row := g.Neighbors(u)
		for p, w := range row {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d: %w", u, w, ErrNodeRange)
			}
			if int(w) == u {
				return fmt.Errorf("graph: node %d has a self-loop", u)
			}
			if p > 0 && row[p-1] >= w {
				return fmt.Errorf("graph: node %d neighbor row not strictly sorted at port %d", u, p)
			}
			if !g.HasEdge(int(w), u) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", u, w)
			}
			i := g.off[u] + int64(p)
			j := int64(g.rev[i])
			if j < 0 || j >= int64(len(g.adj)) {
				return fmt.Errorf("graph: half-edge %d has out-of-range reverse %d", i, j)
			}
			if int(g.adj[j]) != u || int64(g.rev[j]) != i {
				return fmt.Errorf("graph: reverse-port table does not round-trip at half-edge %d", i)
			}
		}
	}
	if int64(len(g.adj)) != 2*int64(g.edges) {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency half-edges %d", g.edges, len(g.adj))
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// and self-loops are silently dropped, so generators can over-propose edges.
//
// Internally the builder records one packed edge and two degree counts per
// AddEdge, and Graph assembles them with the CSR core every builder shares
// (csrfile.Rows and csrfile.ReversePorts): each edge is scattered into both
// endpoints' rows, then every row is sorted and deduplicated in place.
type Builder struct {
	deg   []int64  // per-node endpoint counts, duplicates included
	edges []uint64 // one packed edge u<<32|v per AddEdge
}

// NewBuilder returns a builder for a graph on n nodes. It panics if n < 0.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	if n > math.MaxInt32 {
		panic("graph: node count exceeds the int32 CSR index range")
	}
	return &Builder{deg: make([]int64, n)}
}

// maxHalfEdges caps the builder's half-edge count: rev entries are int32, so
// a graph with 2^31 or more half-edges cannot be indexed by the CSR tables —
// without the guard the int32 conversions in the CSR core would wrap and
// corrupt the graph silently. A variable (not a const) only so tests can
// lower it and exercise the overflow path without a 16 GiB edge list.
var maxHalfEdges = int64(math.MaxInt32)

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// It panics if an endpoint is out of range or the graph would exceed the
// int32 half-edge limit (both programming errors in callers; graphs beyond
// the limit are unrepresentable in CSR and need sharding instead).
func (b *Builder) AddEdge(u, v int) {
	if n := len(b.deg); u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range for n=%d", u, v, n))
	}
	if u == v {
		return
	}
	if 2*int64(len(b.edges))+2 > maxHalfEdges {
		panic(fmt.Sprintf("graph: edge {%d, %d} would push the graph past %d half-edges, which the int32 CSR reverse-port table cannot index",
			u, v, maxHalfEdges))
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(uint32(v)))
	b.deg[u]++
	b.deg[v]++
}

// Graph finalizes the builder into an immutable CSR graph. The builder may
// be reused afterwards; edges added so far remain.
func (b *Builder) Graph() *Graph {
	return assemble(slices.Clone(b.deg), b.edges)
}

// assemble builds the CSR graph of packed edges u<<32|v (no self-loops,
// duplicates allowed) whose per-node endpoint counts are deg; deg is spent
// as the reverse-port cursor array.
func assemble(deg []int64, edges []uint64) *Graph {
	if 2*int64(len(edges)) > maxHalfEdges {
		panic(fmt.Sprintf("graph: %d half-edges exceed the int32 CSR index limit %d; rev []int32 cannot address them",
			2*len(edges), maxHalfEdges))
	}
	off := make([]int64, len(deg)+1)
	adj := make([]int32, 2*len(edges))
	h := csrfile.Rows(deg, edges, off, adj)
	adj = adj[:h]
	rev := make([]int32, h)
	csrfile.ReversePorts(off, adj, rev, deg)
	return &Graph{off: off, adj: adj, rev: rev, edges: int(h / 2)}
}

// FromEdges builds a graph on n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Graph()
}
