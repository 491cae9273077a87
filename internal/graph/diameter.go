package graph

import "math"

// Pieces walks the pieces of a graph and computes their exact diameters. A
// piece is a connected part of the subgraph that keeps only the edges whose
// two ends carry the same label; with no labels it is a connected component.
// The network decompositions label nodes by cluster, so their pieces are the
// connected parts of the clusters' induced subgraphs, and no induced subgraph
// is built to measure them.
//
// Diameter runs BoundingDiameters (Takes and Kosters, "Determining the
// diameter of small world networks", CIKM 2011): every BFS tightens a lower
// and an upper bound on each node's eccentricity, a node whose upper bound
// falls to the best lower bound on the diameter is dropped, and the search
// stops when no node is left. A ring still needs one BFS per node, but a
// typical graph needs a handful. All passes reuse one set of int32 arrays.
type Pieces struct {
	g     *Graph
	label []int32
	next  int     // smallest node that may start a piece
	seen  []bool  // nodes already returned in a piece
	nodes []int32 // the current piece, in BFS order from its smallest node
	dist  []int32 // distances of the last BFS; -1 outside it
	queue []int32 // BFS queue after the first pass over a piece
	// lo and hi bound each piece node's eccentricity; allocated by the
	// first Diameter call that needs them.
	lo, hi []int32
	cand   []int32
}

// NewPieces prepares a walk over the pieces of g. label, if non-nil, holds
// one label per node; edges between different labels are ignored.
func NewPieces(g *Graph, label []int32) *Pieces {
	n := g.N()
	if label != nil && len(label) != n {
		panic("graph: NewPieces label array does not match the node count")
	}
	s := &Pieces{
		g:     g,
		label: label,
		seen:  make([]bool, n),
		nodes: make([]int32, 0, n),
		dist:  make([]int32, n),
	}
	for i := range s.dist {
		s.dist[i] = Unreachable
	}
	return s
}

// Next returns the nodes of the next piece, in BFS order from its smallest
// node, or nil once every node has been returned. Pieces come in order of
// their smallest node. The slice is reused by the next call.
func (s *Pieces) Next() []int32 {
	n := s.g.N()
	for s.next < n && s.seen[s.next] {
		s.next++
	}
	if s.next == n {
		return nil
	}
	s.clearDist()
	s.nodes = s.bfs(int32(s.next), s.nodes)
	for _, v := range s.nodes {
		s.seen[v] = true
	}
	return s.nodes
}

// Diameter returns the exact diameter of the piece Next returned last.
func (s *Pieces) Diameter() int {
	nodes := s.nodes
	if len(nodes) <= 2 {
		return len(nodes) - 1
	}
	if s.lo == nil {
		n := s.g.N()
		s.lo, s.hi = make([]int32, n), make([]int32, n)
		s.cand = make([]int32, 0, n)
		s.queue = make([]int32, 0, n)
	}
	cand := append(s.cand[:0], nodes...)
	for _, v := range cand {
		s.lo[v], s.hi[v] = 0, math.MaxInt32
	}
	// dist still holds the BFS from nodes[0] that Next ran.
	last, lower := nodes, int32(0)
	for pass := 0; ; pass++ {
		ecc := s.dist[last[len(last)-1]]
		lower = max(lower, ecc)
		for _, w := range cand {
			d := s.dist[w]
			s.lo[w] = max(s.lo[w], d, ecc-d)
			s.hi[w] = min(s.hi[w], ecc+d)
			lower = max(lower, s.lo[w])
		}
		// Drop every node whose eccentricity cannot exceed lower; the
		// source itself always goes, since its bounds met.
		kept := cand[:0]
		for _, w := range cand {
			if s.hi[w] > lower {
				kept = append(kept, w)
			}
		}
		cand = kept
		if len(cand) == 0 {
			return int(lower)
		}
		// Alternate between the largest upper bound and the smallest lower
		// bound; ties go to the higher degree.
		src := cand[0]
		for _, w := range cand[1:] {
			if s.better(w, src, pass%2 == 0) {
				src = w
			}
		}
		s.clearDist()
		s.queue = s.bfs(src, s.queue[:0])
		last = s.queue
	}
}

// better reports whether w beats the current pick v as the next BFS source.
func (s *Pieces) better(w, v int32, byUpper bool) bool {
	if byUpper {
		if s.hi[w] != s.hi[v] {
			return s.hi[w] > s.hi[v]
		}
	} else if s.lo[w] != s.lo[v] {
		return s.lo[w] < s.lo[v]
	}
	return s.g.Degree(int(w)) > s.g.Degree(int(v))
}

// bfs fills dist from src over same-label edges, appending the reached
// nodes to queue in BFS order. dist must be -1 on src's piece.
func (s *Pieces) bfs(src int32, queue []int32) []int32 {
	off, adj := s.g.off, s.g.adj
	s.dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := s.dist[v] + 1
		for _, w := range adj[off[v]:off[v+1]] {
			if s.dist[w] != Unreachable || (s.label != nil && s.label[w] != s.label[v]) {
				continue
			}
			s.dist[w] = dv
			queue = append(queue, w)
		}
	}
	return queue
}

// clearDist resets dist on the last BFS's nodes: a piece's BFS passes all
// reach the same nodes, so resetting the piece is enough.
func (s *Pieces) clearDist() {
	for _, v := range s.nodes {
		s.dist[v] = Unreachable
	}
}
