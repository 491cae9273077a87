package decomp

import (
	"fmt"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
	"randlocal/internal/rulingset"
	"randlocal/internal/sim"
)

// ShatteringConfig parameterizes the Theorem 4.2 construction.
type ShatteringConfig struct {
	// ENPhases bounds the first-phase Elkin–Neiman run. Fewer phases leave
	// more nodes unclustered (a deliberately weakened first phase is how
	// the experiments surface a non-trivial leftover set); 0 means the
	// standard 12·⌈log₂ n⌉ + 8.
	ENPhases int
	// SeparationK, when positive, asserts the Theorem's K bound: the
	// construction fails if the (2t+1)-separated leftover set exceeds it.
	SeparationK int
	// Exec carries the per-run execution knobs of the first-phase
	// Elkin–Neiman simulation.
	Exec sim.ExecOptions
}

// ShatteringResult carries the Theorem 4.2 decomposition and the quantities
// its probability argument is about.
type ShatteringResult struct {
	Decomposition *Decomposition
	// Leftover is the number of nodes the randomized phase left unclustered
	// (the set V̄ of the proof).
	Leftover int
	// SeparatedLeftover is the size of the (2t+1)-separated ruling subset S
	// of V̄ — the quantity the theorem's error bound controls (≤ K w.h.p.).
	SeparatedLeftover int
	// ENRounds is the measured CONGEST round count t(n) of phase one.
	ENRounds int
	// DeterministicClusters is the number of leftover clusters handled by
	// the deterministic second phase.
	DeterministicClusters int
	// AnalyticRounds adds the PS-style second-phase budget
	// 2^⌈√log₂(K+1)⌉ · maxClusterRadius to the measured first phase.
	AnalyticRounds int
}

// Shattering implements Theorem 4.2: run the randomized Elkin–Neiman
// decomposition (success 1−1/poly(n) per node), and instead of accepting
// its small failure probability, *repair* the leftover set V̄
// deterministically: compute a (2t+1, O(t·log n))-ruling set S of V̄ (its
// size is at most K with probability 1 − n^{−Ω(K)}, because membership of
// (2t+1)-separated nodes in V̄ is independent), cluster V̄ around S, and
// decompose the resulting cluster graph with the deterministic algorithm.
// The deterministic phase never fails, so the only failure event left is
// |S| > K — which is how the construction turns a 1/poly(n) error bound
// into the theorem's 1−n^{−2^{ε·log² T}}.
//
// The leftover clusters may route through already-clustered nodes, so the
// repaired part has weak diameter (congestion 1 via vertex-disjoint BFS
// trees, exactly as in the paper); validate the result with ValidateWeak.
func Shattering(g *graph.Graph, src randomness.Source, cfg ShatteringConfig) (*ShatteringResult, error) {
	n := g.N()
	if n == 0 {
		return &ShatteringResult{Decomposition: &Decomposition{}}, nil
	}
	enCfg := ENConfig{MaxPhases: cfg.ENPhases, Exec: cfg.Exec}

	// Phase 1: randomized decomposition; tolerate unclustered leftovers.
	d, simRes, err := ElkinNeiman(g, src, nil, enCfg)
	var unclustered *ErrUnclustered
	if err != nil && !asUnclustered(err, &unclustered) {
		return nil, err
	}
	res := &ShatteringResult{Decomposition: d, ENRounds: simRes.Rounds}
	var leftover []int
	for v := 0; v < n; v++ {
		if d.Cluster[v] < 0 {
			leftover = append(leftover, v)
		}
	}
	res.Leftover = len(leftover)
	if len(leftover) == 0 {
		res.AnalyticRounds = simRes.Rounds
		return res, nil
	}

	// Phase 2a: (2t+1)-separated ruling set of the leftover set.
	t := simRes.Rounds
	alpha := 2*t + 1
	rs, err := rulingset.Compute(g, leftover, alpha, nil)
	if err != nil {
		return nil, fmt.Errorf("decomp: leftover ruling set: %w", err)
	}
	res.SeparatedLeftover = len(rs.Set)
	if cfg.SeparationK > 0 && len(rs.Set) > cfg.SeparationK {
		return nil, fmt.Errorf("decomp: separated leftover %d exceeds the K=%d bound — the theorem's w.h.p. event failed",
			len(rs.Set), cfg.SeparationK)
	}

	// Phase 2b: cluster V̄ around S by BFS in the full graph (trees may
	// pass through clustered nodes: weak diameter, congestion 1).
	_, owner := g.MultiBFSOwner(rs.Set)
	sIndex := map[int]int{}
	for _, s := range rs.Set {
		sIndex[s] = len(sIndex)
	}
	K := len(rs.Set)
	part := make([]int, n)
	for v := range part {
		part[v] = -1
	}
	for _, v := range leftover {
		part[v] = sIndex[owner[v]]
	}
	// Cluster graph GC: leftover clusters adjacent when members of V̄ are.
	gc := graph.Contract(g, part, K)
	res.DeterministicClusters = K

	// Phase 2c: deterministic decomposition of GC.
	gcDecomp := DeterministicSequential(gc)

	// Merge: leftover node v gets the GC cluster/color of its S-cluster,
	// with labels and colors offset past phase 1's.
	maxColor := 0
	maxCluster := 0
	for v := 0; v < n; v++ {
		if d.Color[v] > maxColor {
			maxColor = d.Color[v]
		}
		if d.Cluster[v] > maxCluster {
			maxCluster = d.Cluster[v]
		}
	}
	for _, v := range leftover {
		d.Cluster[v] = maxCluster + 1 + gcDecomp.Cluster[part[v]]
		d.Color[v] = maxColor + 1 + gcDecomp.Color[part[v]]
	}
	// Second-phase analytic budget: 2^⌈√log₂(K+1)⌉ cluster-graph rounds,
	// each costing the maximum leftover-cluster radius O(t·log n).
	sq := 1
	for sq*sq < log2Ceil(K+1) {
		sq++
	}
	res.AnalyticRounds = simRes.Rounds + (1<<sq)*(alpha*rs.Levels+1)
	return res, nil
}

func asUnclustered(err error, target **ErrUnclustered) bool {
	u, ok := err.(*ErrUnclustered)
	if ok {
		*target = u
	}
	return ok
}

// ValidateWeak checks d as a weak-diameter decomposition of g: every node
// clustered, colors consistent per cluster, adjacent clusters differently
// colored, and every cluster's weak diameter (distance measured in all of
// g) at most maxWeakDiam (0 skips the bound). Cluster connectivity within
// the induced subgraph is NOT required — leftover clusters of the
// Theorem 4.2 construction connect through foreign nodes via their BFS
// trees, which is the congestion-1 notion defined in Section 2.
func (d *Decomposition) ValidateWeak(g *graph.Graph, maxColors, maxWeakDiam int) error {
	n := g.N()
	if len(d.Cluster) != n || len(d.Color) != n {
		return fmt.Errorf("decomp: label arrays sized %d/%d for %d nodes", len(d.Cluster), len(d.Color), n)
	}
	for v := 0; v < n; v++ {
		if d.Cluster[v] < 0 {
			return fmt.Errorf("decomp: node %d is unclustered", v)
		}
	}
	clusterColor := map[int]int{}
	for v := 0; v < n; v++ {
		c := d.Cluster[v]
		if col, ok := clusterColor[c]; ok && col != d.Color[v] {
			return fmt.Errorf("decomp: cluster %d carries colors %d and %d", c, col, d.Color[v])
		} else if !ok {
			clusterColor[c] = d.Color[v]
		}
	}
	var adjErr error
	g.Edges(func(u, v int) {
		if adjErr == nil && d.Cluster[u] != d.Cluster[v] && d.Color[u] == d.Color[v] {
			adjErr = fmt.Errorf("decomp: adjacent clusters %d and %d share color %d", d.Cluster[u], d.Cluster[v], d.Color[u])
		}
	})
	if adjErr != nil {
		return adjErr
	}
	if maxColors > 0 && d.NumColors() > maxColors {
		return fmt.Errorf("decomp: %d colors exceed the bound %d", d.NumColors(), maxColors)
	}
	if maxWeakDiam > 0 {
		for u := 0; u < n; u++ {
			for v, dist := range g.BFS(u) {
				if d.Cluster[v] == d.Cluster[u] && (dist == graph.Unreachable || dist > maxWeakDiam) {
					return fmt.Errorf("decomp: cluster %d has weak diameter > %d (pair %d,%d)", d.Cluster[u], maxWeakDiam, u, v)
				}
			}
		}
	}
	return nil
}
