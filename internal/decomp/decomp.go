// Package decomp implements the network-decomposition constructions at the
// center of the paper: the randomized Elkin–Neiman baseline [EN16] that the
// paper's Section 2 takes as its starting point, the one-bit-per-ball
// construction of Theorem 3.1 (Lemmas 3.2 and 3.3), the strong-diameter
// variant of Theorem 3.7, the shared-randomness CONGEST construction of
// Theorem 3.6, the shattering-boosted construction of Theorem 4.2, and a
// deterministic ruling-set-based baseline standing in for the
// Panconesi–Srinivasan second phase.
//
// A network decomposition with α colors and diameter β partitions V into
// clusters, assigns each cluster one of α colors, and guarantees that
// same-color clusters are non-adjacent and every cluster's induced subgraph
// has diameter at most β (strong diameter — all constructions here achieve
// congestion 1, the strongest variant defined in Section 2 of the paper).
package decomp

import (
	"fmt"
	"slices"

	"randlocal/internal/graph"
)

// Decomposition is a strong-diameter network decomposition: Cluster[v]
// identifies v's cluster (clusters are arbitrary non-negative labels, unique
// per cluster), and Color[v] is the color of that cluster.
type Decomposition struct {
	Cluster []int
	Color   []int
}

// NumColors returns the number of distinct colors used.
func (d *Decomposition) NumColors() int {
	_, sizes := labelIndex(d.Color)
	return len(sizes)
}

// NumClusters returns the number of distinct clusters.
func (d *Decomposition) NumClusters() int {
	_, sizes := labelIndex(d.Cluster)
	return len(sizes)
}

// MaxClusterDiameter returns the maximum, over clusters, of the diameter of
// the cluster's induced subgraph (the strong diameter of the decomposition).
// A disconnected cluster yields an error via Validate; here it counts with
// the largest diameter of its connected pieces.
func (d *Decomposition) MaxClusterDiameter(g *graph.Graph) int {
	idx, _ := labelIndex(d.Cluster)
	return maxPieceDiameter(g, idx)
}

// MaxClusterSize returns the size of the largest cluster.
func (d *Decomposition) MaxClusterSize() int {
	_, sizes := labelIndex(d.Cluster)
	return int(slices.Max(append(sizes, 0)))
}

// labelIndex numbers the distinct labels 0..k-1 in increasing label order.
// It returns each node's number and the node count per number. Labels in
// [0, n) are numbered by a counting pass; any other label set is sorted.
func labelIndex(labels []int) (idx, sizes []int32) {
	n := len(labels)
	idx = make([]int32, n)
	dense := true
	for _, c := range labels {
		if c < 0 || c >= n {
			dense = false
			break
		}
	}
	if dense {
		rank := make([]int32, n)
		for _, c := range labels {
			rank[c] = 1
		}
		k := int32(0)
		for c, seen := range rank {
			if seen != 0 {
				rank[c] = k
				k++
			}
		}
		sizes = make([]int32, k)
		for v, c := range labels {
			idx[v] = rank[c]
			sizes[idx[v]]++
		}
		return idx, sizes
	}
	sorted := slices.Compact(slices.Sorted(slices.Values(labels)))
	sizes = make([]int32, len(sorted))
	for v, c := range labels {
		i, _ := slices.BinarySearch(sorted, c)
		idx[v] = int32(i)
		sizes[i]++
	}
	return idx, sizes
}

// maxPieceDiameter returns the largest exact diameter of a connected piece
// of a cluster, the clusters given by their label numbers.
func maxPieceDiameter(g *graph.Graph, idx []int32) int {
	s, diam := graph.NewPieces(g, idx), 0
	for piece := s.Next(); piece != nil; piece = s.Next() {
		diam = max(diam, s.Diameter())
	}
	return diam
}

// Validate checks that d is a valid strong-diameter network decomposition of
// g with at most maxColors colors and cluster diameter at most maxDiam
// (pass maxColors or maxDiam <= 0 to skip the respective bound):
//
//  1. every node belongs to a cluster (Cluster[v] >= 0),
//  2. color is constant on every cluster,
//  3. adjacent nodes in different clusters have different cluster colors,
//  4. every cluster's induced subgraph is connected with diameter <= maxDiam.
//
// Clusters are checked in order of their smallest node.
func (d *Decomposition) Validate(g *graph.Graph, maxColors, maxDiam int) error {
	n := g.N()
	if len(d.Cluster) != n || len(d.Color) != n {
		return fmt.Errorf("decomp: label arrays sized %d/%d for %d nodes", len(d.Cluster), len(d.Color), n)
	}
	for v := 0; v < n; v++ {
		if d.Cluster[v] < 0 {
			return fmt.Errorf("decomp: node %d is unclustered", v)
		}
	}
	idx, sizes := labelIndex(d.Cluster)
	colorOf := make([]int32, len(sizes)) // first node of each cluster, plus one
	for v := 0; v < n; v++ {
		first := colorOf[idx[v]] - 1
		if first < 0 {
			colorOf[idx[v]] = int32(v) + 1
		} else if d.Color[first] != d.Color[v] {
			return fmt.Errorf("decomp: cluster %d carries colors %d and %d", d.Cluster[v], d.Color[first], d.Color[v])
		}
	}
	var adjErr error
	g.Edges(func(u, v int) {
		if adjErr != nil {
			return
		}
		if d.Cluster[u] != d.Cluster[v] && d.Color[u] == d.Color[v] {
			adjErr = fmt.Errorf("decomp: adjacent clusters %d and %d share color %d (edge {%d,%d})",
				d.Cluster[u], d.Cluster[v], d.Color[u], u, v)
		}
	})
	if adjErr != nil {
		return adjErr
	}
	if maxColors > 0 {
		if got := d.NumColors(); got > maxColors {
			return fmt.Errorf("decomp: %d colors exceed the bound %d", got, maxColors)
		}
	}
	s := graph.NewPieces(g, idx)
	for piece := s.Next(); piece != nil; piece = s.Next() {
		c := d.Cluster[piece[0]]
		if len(piece) < int(sizes[idx[piece[0]]]) {
			return fmt.Errorf("decomp: cluster %d induces a disconnected subgraph", c)
		}
		if maxDiam > 0 {
			if diam := s.Diameter(); diam > maxDiam {
				return fmt.Errorf("decomp: cluster %d has strong diameter %d > bound %d", c, diam, maxDiam)
			}
		}
	}
	return nil
}

// Stats summarizes the quality parameters the experiments report.
type Stats struct {
	Colors      int
	Clusters    int
	MaxDiameter int
	MaxSize     int
}

// StatsOf computes the decomposition's quality parameters on g.
func (d *Decomposition) StatsOf(g *graph.Graph) Stats {
	idx, sizes := labelIndex(d.Cluster)
	return Stats{
		Colors:      d.NumColors(),
		Clusters:    len(sizes),
		MaxDiameter: maxPieceDiameter(g, idx),
		MaxSize:     int(slices.Max(append(sizes, 0))),
	}
}
