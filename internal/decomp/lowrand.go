package decomp

import (
	"fmt"
	"sort"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
	"randlocal/internal/rulingset"
)

// LowRandConfig parameterizes the Theorem 3.1 construction.
type LowRandConfig struct {
	// H is the sparseness parameter h: every node has a bit-holder within
	// h hops. Required (>= 1).
	H int
	// BitsPerCluster is the number of random bits k each non-isolated
	// pre-cluster must gather (Lemma 3.2's k). 0 means 64·⌈log₂ n⌉, enough
	// for the Lemma 3.3 phases with margin (the paper budgets C·log² n).
	BitsPerCluster int
	// RulingAlphaFactor scales the ruling-set separation h' = factor·k·H;
	// the paper uses 10 (h' = 10kh). 0 means 10. Smaller factors are used
	// by ablation experiments to probe how tight the constant is.
	RulingAlphaFactor int
}

// LowRandResult carries the Theorem 3.1 decomposition and its accounting.
type LowRandResult struct {
	Decomposition *Decomposition
	// PreClusters is the Lemma 3.2 clustering (cluster label = center).
	PreClusters []int
	// Isolated counts pre-clusters with no neighboring cluster.
	Isolated int
	// BitsGathered is the total number of holder bits collected.
	BitsGathered int
	// AnalyticRounds is the CONGEST round budget of the construction:
	// ruling set O(h'·log n) + cluster formation O(h'·log n) + upcast
	// O(h'·log n) + Lemma 3.3's EN on the cluster graph, O(log² n) cluster
	// rounds at O(h'·log n) base rounds each.
	AnalyticRounds int
	// ENPhases is the number of phases the cluster-graph EN needed.
	ENPhases int
	// Measured is the engine accounting of that cluster-graph EN run, in
	// cluster-graph rounds (zero when every pre-cluster is isolated).
	Measured
}

// LowRand implements Theorem 3.1: given that the nodes listed in holders
// each own a single private random bit (src must be a Sparse source over
// exactly those nodes) and every node of g lies within cfg.H hops of a
// holder, it builds an (O(log n), h·poly(log n)) strong-diameter network
// decomposition using only those bits.
//
// The construction follows the paper's two lemmas literally. Lemma 3.2:
// compute an (h', h'·log n)-ruling set R with h' = 10·k·h, cluster every
// node with its nearest R-node, and upcast the holder bits inside each
// cluster to its center — non-isolated clusters are guaranteed (and here
// verified) to contain enough holders. Lemma 3.3: run the Elkin–Neiman
// program on the engine over the cluster graph, with each cluster-center
// drawing its geometric radii from its gathered pool, and map colors back to
// nodes.
func LowRand(g *graph.Graph, src *randomness.Sparse, holders []int, cfg LowRandConfig) (*LowRandResult, error) {
	n := g.N()
	if n == 0 {
		return &LowRandResult{Decomposition: &Decomposition{}}, nil
	}
	pc, err := gatherPreClusters(g, src, holders, cfg, "LowRand")
	if err != nil {
		return nil, err
	}
	pre, pools := pc.pre, pc.pools
	numPre := len(pools)
	cg := graph.Contract(g, pre, numPre)
	// Isolated clusters stand alone with color 0 (they have no neighbors,
	// so any color is safe — the paper colors them with color 1 up front);
	// EN runs on the sub-cluster-graph induced by the others.
	isolated := 0
	var active []int
	colorOfPre := make([]int, numPre)
	clusterOfPre := make([]int, numPre)
	for c := 0; c < numPre; c++ {
		clusterOfPre[c] = c
		if cg.Degree(c) == 0 {
			isolated++
			continue
		}
		if pools[c].Size() < pc.k {
			return nil, fmt.Errorf("decomp: non-isolated pre-cluster %d gathered %d bits < k=%d (h' too small for this graph)",
				c, pools[c].Size(), pc.k)
		}
		active = append(active, c)
	}

	// --- Lemma 3.3: Elkin–Neiman on the cluster graph, radii from pools. ---
	cap := 2*log2Ceil(numPre+1) + 4
	maxPhases := 12*log2Ceil(numPre+1) + 8
	var poolErr error
	radius := func(c, phase int) int {
		budget := pools[c].Remaining()
		if budget == 0 {
			if poolErr == nil {
				poolErr = fmt.Errorf("decomp: pre-cluster %d exhausted its %d gathered bits in phase %d (increase BitsPerCluster)",
					c, pools[c].Size(), phase)
			}
			return 1
		}
		if budget > cap {
			budget = cap
		}
		r, ok := pools[c].Geometric(budget)
		if !ok && budget < cap && poolErr == nil {
			poolErr = fmt.Errorf("decomp: pre-cluster %d ran out of bits mid-draw in phase %d (increase BitsPerCluster)", c, phase)
		}
		return r
	}
	phases := 0
	var measured Measured
	if len(active) > 0 {
		// The engine run draws each cluster's radii phase by phase, on one
		// worker and with no private randomness: the pools are its only
		// coins.
		sub, orig := graph.InducedSubgraph(cg, active)
		subRadius := func(v, phase int) int { return radius(orig[v], phase) }
		subDecomp, res, err := ElkinNeiman(sub, nil, nil, ENConfig{Radius: subRadius, RadiusCap: cap, MaxPhases: maxPhases})
		if poolErr != nil {
			return nil, poolErr
		}
		if err != nil {
			return nil, err
		}
		measured = Measured{res.Rounds, res.Messages, res.MaxMessageBits}
		for i := range orig {
			// Offset non-isolated labels past the isolated ones and bump
			// colors by 1 so isolated clusters (color 0) never collide.
			clusterOfPre[orig[i]] = numPre + subDecomp.Cluster[i]
			colorOfPre[orig[i]] = 1 + subDecomp.Color[i]
			phases = max(phases, subDecomp.Color[i]+1)
		}
	}

	d := &Decomposition{Cluster: make([]int, n), Color: make([]int, n)}
	for v := 0; v < n; v++ {
		d.Cluster[v] = clusterOfPre[pre[v]]
		d.Color[v] = colorOfPre[pre[v]]
	}
	enRounds := phases * (cap + 2)
	res := &LowRandResult{
		Decomposition:  d,
		PreClusters:    pre,
		Isolated:       isolated,
		BitsGathered:   pc.gathered,
		ENPhases:       phases,
		AnalyticRounds: pc.rulingRounds + 2*pc.hPrime*pc.lg + enRounds*(2*pc.hPrime*pc.lg+1),
		Measured:       measured,
	}
	return res, nil
}

// preClustering is the outcome of Lemma 3.2: every node's pre-cluster,
// numbered densely, and the holder bits each pre-cluster gathered.
type preClustering struct {
	pre      []int
	pools    []*randomness.Pool
	gathered int
	lg       int // ⌈log₂ n⌉ + 1
	k        int // the bits each non-isolated pre-cluster must gather
	hPrime   int // the ruling-set separation factor·k·h
	// rulingRounds is the ruling set's AnalyticRounds.
	rulingRounds int
}

// gatherPreClusters runs Lemma 3.2 for the construction named who on a
// non-empty g: it checks that every node has a bit-holder within cfg.H
// hops, computes an (h', h'·log n)-ruling set with h' = factor·k·h,
// clusters every node with its nearest ruling node, and upcasts every
// holder's bits to its pre-cluster's pool.
func gatherPreClusters(g *graph.Graph, src *randomness.Sparse, holders []int, cfg LowRandConfig, who string) (*preClustering, error) {
	n := g.N()
	if cfg.H < 1 {
		return nil, fmt.Errorf("decomp: %s needs h >= 1, got %d", who, cfg.H)
	}
	lg := log2Ceil(n) + 1
	k := cfg.BitsPerCluster
	if k == 0 {
		k = 64 * lg
	}
	factor := cfg.RulingAlphaFactor
	if factor == 0 {
		factor = 10
	}
	// Verify the model precondition: every node within h of a holder.
	holderDist := g.MultiBFS(holders)
	for v := 0; v < n; v++ {
		if holderDist[v] == graph.Unreachable || holderDist[v] > cfg.H {
			return nil, fmt.Errorf("decomp: node %d has no bit-holder within h=%d hops", v, cfg.H)
		}
	}
	hPrime := factor * k * cfg.H
	rs, err := rulingset.Compute(g, nil, hPrime, nil)
	if err != nil {
		return nil, fmt.Errorf("decomp: ruling set: %w", err)
	}
	_, owner := g.MultiBFSOwner(rs.Set)
	// Relabel pre-clusters densely.
	centerIdx := map[int]int{}
	for _, c := range rs.Set {
		centerIdx[c] = len(centerIdx)
	}
	pc := &preClustering{pre: make([]int, n), pools: make([]*randomness.Pool, len(rs.Set)),
		lg: lg, k: k, hPrime: hPrime, rulingRounds: rs.AnalyticRounds}
	for v := 0; v < n; v++ {
		pc.pre[v] = centerIdx[owner[v]]
	}
	// Gather holder bits per pre-cluster (the upcast of Lemma 3.2).
	for i := range pc.pools {
		pc.pools[i] = &randomness.Pool{}
	}
	for _, h := range holders {
		stream := src.Stream(h)
		for stream.Remaining() > 0 {
			pc.pools[pc.pre[h]].Add(stream.Bit())
			pc.gathered++
		}
	}
	return pc, nil
}

// DistinctPreClusters counts the distinct Lemma 3.2 pre-clusters.
func (r *LowRandResult) DistinctPreClusters() int {
	seen := map[int]bool{}
	for _, c := range r.PreClusters {
		seen[c] = true
	}
	return len(seen)
}

// GreedyDominatingSet returns a set S such that every node is within h hops
// of S, by greedily sweeping nodes in index order and claiming any node not
// yet dominated. It is the experiment harness's stand-in for "there happens
// to be a bit of randomness within h hops of everyone" — the model
// assumption of Theorems 3.1/3.7 — and also certifies the h-domination.
func GreedyDominatingSet(g *graph.Graph, h int) []int {
	n := g.N()
	covered := make([]bool, n)
	var set []int
	for v := 0; v < n; v++ {
		if covered[v] {
			continue
		}
		set = append(set, v)
		nodes, _ := g.BFSWithin(v, h)
		for _, w := range nodes {
			covered[w] = true
		}
	}
	sort.Ints(set)
	return set
}
