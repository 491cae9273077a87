package graph

// Power returns the r-th power G^r: the graph on the same node set where
// {u, v} is an edge iff 1 <= dist_G(u, v) <= r. Graph powers are the
// workhorse of the SLOCAL→LOCAL derandomization pipeline: a network
// decomposition with poly(log n) parameters of G^r (for r the SLOCAL
// locality) lets clusters be processed color-by-color with no interference
// (see Section 2 of the paper and [GKM17, GHK18]).
//
// It runs a depth-limited BFS from every node, O(n · (n_r + m_r)) where the
// subscripted quantities are ball sizes; exact and deterministic.
func Power(g *Graph, r int) *Graph {
	if r < 1 {
		panic("graph: Power radius must be >= 1")
	}
	if r == 1 {
		return g.Clone()
	}
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		nodes, _ := g.BFSWithin(v, r)
		for _, w := range nodes {
			if w > v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Graph()
}

// InducedSubgraph returns the subgraph induced by the given node set and the
// mapping from new indices to original indices. Nodes may be listed in any
// order; duplicates are rejected with a panic (caller bug).
func InducedSubgraph(g *Graph, nodes []int) (sub *Graph, origOf []int) {
	newOf := make(map[int]int, len(nodes))
	origOf = make([]int, len(nodes))
	for i, v := range nodes {
		if _, dup := newOf[v]; dup {
			panic("graph: InducedSubgraph duplicate node")
		}
		newOf[v] = i
		origOf[i] = v
	}
	b := NewBuilder(len(nodes))
	for i, v := range nodes {
		for _, w := range g.Neighbors(v) {
			if j, ok := newOf[int(w)]; ok && j > i {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Graph(), origOf
}

// Contract builds the cluster graph of a partition: given part[v] ∈ [0, k)
// for every node (or a negative value for nodes outside every cluster), it
// returns the graph on k cluster-nodes where two clusters are adjacent iff
// some edge of g joins them. This is the "logical cluster graph CG" that
// Lemma 3.3 and Theorem 4.2 run Elkin–Neiman on top of.
func Contract(g *Graph, part []int, k int) *Graph {
	if len(part) != g.N() {
		panic("graph: Contract partition length mismatch")
	}
	b := NewBuilder(k)
	g.Edges(func(u, v int) {
		cu, cv := part[u], part[v]
		if cu >= 0 && cv >= 0 && cu != cv {
			b.AddEdge(cu, cv)
		}
	})
	return b.Graph()
}
