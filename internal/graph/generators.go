package graph

import (
	"fmt"
	"math"

	"randlocal/internal/prng"
)

// GNP returns an Erdős–Rényi random graph G(n, p): every unordered pair is an
// edge independently with probability p. It uses geometric skipping, so the
// expected running time is O(n + m) rather than O(n²) for sparse p.
func GNP(n int, p float64, rng *prng.SplitMix64) *Graph {
	b := NewBuilder(n)
	gnpPairs(n, p, rng, b.AddEdge)
	return b.Graph()
}

// gnpPairs emits the edges of one G(n, p) sample — the draw sequence GNP and
// GNPConnectedStream share. It walks the pairs (u, v), u < v, in row-major
// order and skips geometrically: each draw U gives floor(log U / log(1-p))
// non-edges before the next edge. p = 0 and p = 1 draw nothing.
func gnpPairs(n int, p float64, rng *prng.SplitMix64, emit func(u, v int)) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: GNP probability %v out of [0,1]", p))
	}
	if p == 0 || n < 2 {
		return
	}
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				emit(u, v)
			}
		}
		return
	}
	u, v := 0, 0
	for {
		uniform := rng.Float64()
		for uniform == 0 {
			uniform = rng.Float64()
		}
		v += int(math.Log(uniform)/math.Log(1-p)) + 1
		for v >= n {
			overflow := v - n
			u++
			v = u + 1 + overflow
			if u >= n-1 {
				return
			}
		}
		emit(u, v)
	}
}

// GNPConnected returns a connected G(n, p) sample: it draws G(n, p) and then
// links consecutive components with one extra edge each, chosen between
// random representatives. The result is connected while remaining
// statistically close to G(n, p) for p above the connectivity threshold.
// It is GNPConnectedStream collected into a Builder.
func GNPConnected(n int, p float64, rng *prng.SplitMix64) *Graph {
	b := NewBuilder(n)
	GNPConnectedStream(n, p, rng, b.AddEdge)
	return b.Graph()
}

// Ring returns the n-cycle C_n (for n >= 3), the single edge for n = 2, and
// an edgeless graph for n < 2.
func Ring(n int) *Graph {
	b := NewBuilder(n)
	if n == 2 {
		b.AddEdge(0, 1)
		return b.Graph()
	}
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	if n >= 3 {
		b.AddEdge(n-1, 0)
	}
	return b.Graph()
}

// Path returns the n-node path P_n.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Graph()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Graph()
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Graph()
}

// Grid returns the rows×cols grid graph. Node (r, c) has index r*cols+c.
func Grid(rows, cols int) *Graph {
	return Grid2D(rows, cols, false)
}

// Grid2D returns the rows×cols grid with 4-connected adjacency or — when
// diagonals is true — the 8-connected "king graph" variant, the classic
// bounded-degree planar-ish topologies for experiments where Δ must stay
// constant as n grows. Node (r, c) has index r*cols+c.
// Grid2D(rows, cols, false) equals Grid(rows, cols).
func Grid2D(rows, cols int, diagonals bool) *Graph {
	if rows < 0 || cols < 0 {
		panic("graph: Grid2D needs rows, cols >= 0")
	}
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(v, v+1)
			}
			if r+1 < rows {
				b.AddEdge(v, v+cols)
				if diagonals {
					if c+1 < cols {
						b.AddEdge(v, v+cols+1)
					}
					if c > 0 {
						b.AddEdge(v, v+cols-1)
					}
				}
			}
		}
	}
	return b.Graph()
}

// Torus returns the rows×cols torus (grid with wraparound), the
// constant-degree workload used for sinkless-orientation-style experiments.
func Torus(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			b.AddEdge(v, r*cols+(c+1)%cols)
			b.AddEdge(v, ((r+1)%rows)*cols+c)
		}
	}
	return b.Graph()
}

// RandomTree returns a uniformly random labelled tree on n nodes, generated
// from a random Prüfer sequence.
func RandomTree(n int, rng *prng.SplitMix64) *Graph {
	if n <= 1 {
		return NewBuilder(n).Graph()
	}
	if n == 2 {
		return FromEdges(2, [][2]int{{0, 1}})
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	return TreeFromPrufer(n, prufer)
}

// TreeFromPrufer decodes a Prüfer sequence of length n-2 into the unique
// labelled tree on n nodes it encodes. It panics on malformed input.
func TreeFromPrufer(n int, prufer []int) *Graph {
	if len(prufer) != n-2 {
		panic(fmt.Sprintf("graph: Prüfer sequence length %d for n=%d", len(prufer), n))
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range prufer {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("graph: Prüfer entry %d out of range for n=%d", v, n))
		}
		deg[v]++
	}
	b := NewBuilder(n)
	// ptr/leaf scan gives O(n) decoding.
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.AddEdge(leaf, v)
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	b.AddEdge(leaf, n-1)
	return b.Graph()
}

// BalancedTree returns the complete b-ary tree with the given depth
// (depth 0 is a single root).
func BalancedTree(branching, depth int) *Graph {
	if branching < 1 {
		panic("graph: BalancedTree branching must be >= 1")
	}
	// Count nodes: 1 + b + b^2 + ... + b^depth.
	n := 1
	level := 1
	for d := 0; d < depth; d++ {
		level *= branching
		n += level
	}
	b := NewBuilder(n)
	next := 1
	for parent := 0; parent < n && next < n; parent++ {
		for c := 0; c < branching && next < n; c++ {
			b.AddEdge(parent, next)
			next++
		}
	}
	return b.Graph()
}

// RingOfCliques returns k cliques of size s arranged on a ring, consecutive
// cliques joined by a single edge. This family has both dense local
// structure (cliques) and large diameter (the ring), which makes it the
// canonical stress test for the low-randomness decomposition of Theorem 3.1:
// bit-holders can be placed one per clique, h hops apart.
func RingOfCliques(k, s int) *Graph {
	if k < 1 || s < 1 {
		panic("graph: RingOfCliques needs k, s >= 1")
	}
	b := NewBuilder(k * s)
	for c := 0; c < k; c++ {
		base := c * s
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				b.AddEdge(base+u, base+v)
			}
		}
	}
	for c := 0; c < k; c++ {
		next := (c + 1) % k
		if k == 1 || (k == 2 && c == 1) {
			break
		}
		// Link last node of clique c to first node of the next clique.
		b.AddEdge(c*s+s-1, next*s)
	}
	return b.Graph()
}

// PowerLaw returns a Barabási–Albert preferential-attachment graph: nodes
// arrive one at a time and attach m edges to existing nodes chosen with
// probability proportional to their current degree (sampled as a uniform
// position in the running edge-endpoint list). The degree distribution
// follows a power law — the skewed-hub regime the GNP and regular families
// miss — and the graph is connected for m >= 1. It panics if m < 1.
func PowerLaw(n, m int, rng *prng.SplitMix64) *Graph {
	if m < 1 {
		panic(fmt.Sprintf("graph: PowerLaw attachment count %d < 1", m))
	}
	b := NewBuilder(n)
	if n <= m+1 {
		// Too few nodes for m attachments each: fall back to a clique.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.Graph()
	}
	// Seed with a star on m+1 nodes, then attach each new node to m
	// distinct degree-weighted targets.
	targets := make([]int, 0, 2*m*n)
	for v := 1; v <= m; v++ {
		b.AddEdge(0, v)
		targets = append(targets, 0, v)
	}
	// picked is an order-preserving set: map iteration would randomize the
	// targets list and break same-seed determinism.
	picked := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		picked = picked[:0]
		for len(picked) < m {
			t := targets[rng.Intn(len(targets))]
			dup := false
			for _, w := range picked {
				if w == t {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, t)
			}
		}
		for _, w := range picked {
			b.AddEdge(v, w)
			targets = append(targets, v, w)
		}
	}
	return b.Graph()
}

// Disjoint returns the disjoint union of the given graphs, relabelling the
// nodes of each successive graph after those of the previous ones. It is
// used by the derandomization experiments that embed a graph inside a larger
// "virtual" network (the lying-about-n technique of Theorem 4.3).
func Disjoint(gs ...*Graph) *Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := NewBuilder(n)
	base := 0
	for _, g := range gs {
		off := base
		g.Edges(func(u, v int) { b.AddEdge(off+u, off+v) })
		base += g.N()
	}
	return b.Graph()
}
