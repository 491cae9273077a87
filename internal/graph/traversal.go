package graph

// Unreachable is the distance value reported for nodes not reachable from
// the BFS sources.
const Unreachable = -1

// BFS returns the array of hop distances from src to every node, with
// Unreachable for nodes in other components.
func (g *Graph) BFS(src int) []int {
	return g.MultiBFS([]int{src})
}

// MultiBFS returns hop distances from the nearest of the given sources.
// Duplicate sources are allowed; an empty source set yields all-Unreachable.
func (g *Graph) MultiBFS(srcs []int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 0, len(srcs))
	for _, s := range srcs {
		if s < 0 || s >= g.N() {
			panic("graph: BFS source out of range")
		}
		if dist[s] == Unreachable {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.adj[g.off[v]:g.off[v+1]] {
			if dist[w] == Unreachable {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// MultiBFSOwner runs a multi-source BFS and additionally reports, for every
// reached node, which source claimed it (the nearest source, ties broken by
// BFS queue order, i.e. by order in srcs). This is exactly the "each node
// joins the cluster of the nearest center" primitive used by Lemma 3.2 and
// the ruling-set clusterings; owner is Unreachable for unreached nodes.
func (g *Graph) MultiBFSOwner(srcs []int) (dist, owner []int) {
	dist = make([]int, g.N())
	owner = make([]int, g.N())
	for i := range dist {
		dist[i] = Unreachable
		owner[i] = Unreachable
	}
	queue := make([]int32, 0, len(srcs))
	for _, s := range srcs {
		if dist[s] == Unreachable {
			dist[s] = 0
			owner[s] = s
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.adj[g.off[v]:g.off[v+1]] {
			if dist[w] == Unreachable {
				dist[w] = dist[v] + 1
				owner[w] = owner[v]
				queue = append(queue, w)
			}
		}
	}
	return dist, owner
}

// Components labels connected components. It returns comp with
// comp[v] ∈ [0, k) and the number of components k. Labels are assigned in
// order of smallest contained node index.
func Components(g *Graph) (comp []int, k int) {
	comp = make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, g.N())
	for v := 0; v < g.N(); v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = k
		queue = append(queue[:0], int32(v))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.adj[g.off[u]:g.off[u+1]] {
				if comp[w] == -1 {
					comp[w] = k
					queue = append(queue, w)
				}
			}
		}
		k++
	}
	return comp, k
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single node are connected.
func IsConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	_, k := Components(g)
	return k == 1
}

// Eccentricity returns the maximum distance from v to any node reachable
// from it.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter of the graph: the largest
// eccentricity within any connected component (unreachable pairs are
// ignored). It runs BoundingDiameters per component (see Pieces), so a
// typical graph costs a handful of BFS passes; the worst case, a ring, is
// still one BFS per node, O(n(n+m)). The empty graph has diameter 0.
func Diameter(g *Graph) int {
	s, diam := NewPieces(g, nil), 0
	for piece := s.Next(); piece != nil; piece = s.Next() {
		diam = max(diam, s.Diameter())
	}
	return diam
}

// BFSWithin returns the set of nodes at distance <= radius from src, in BFS
// order, together with their distances.
func (g *Graph) BFSWithin(src, radius int) (nodes, dist []int) {
	d := make(map[int]int, 16)
	d[src] = 0
	nodes = append(nodes, src)
	dist = append(dist, 0)
	for head := 0; head < len(nodes); head++ {
		v := nodes[head]
		if d[v] == radius {
			continue
		}
		for _, w := range g.adj[g.off[v]:g.off[v+1]] {
			if _, ok := d[int(w)]; !ok {
				d[int(w)] = d[v] + 1
				nodes = append(nodes, int(w))
				dist = append(dist, d[int(w)])
			}
		}
	}
	return nodes, dist
}

// Dist returns the hop distance between u and v (Unreachable if v is in a
// different component). It runs a BFS from u and terminates early.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	dist := make(map[int]int, 16)
	dist[u] = 0
	queue := []int{u}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, w := range g.adj[g.off[x]:g.off[x+1]] {
			if _, ok := dist[int(w)]; !ok {
				dist[int(w)] = dist[x] + 1
				if int(w) == v {
					return dist[int(w)]
				}
				queue = append(queue, int(w))
			}
		}
	}
	return Unreachable
}
