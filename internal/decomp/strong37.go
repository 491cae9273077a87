package decomp

import (
	"fmt"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
)

// StrongLowRandResult carries the Theorem 3.7 decomposition and accounting.
type StrongLowRandResult struct {
	Decomposition *Decomposition
	Phases        int
	// BitsGathered is the number of holder bits collected by the Lemma 3.2
	// upcast (the construction's entire randomness budget).
	BitsGathered int
	// AnalyticRounds adds the ruling set's and the upcast's formula budgets
	// to the carving's schedule (see SharedRandResult.AnalyticRounds).
	AnalyticRounds int
	// Measured is the engine accounting of the carving run.
	Measured
}

// StrongLowRand implements Theorem 3.7: under the same sparse-randomness
// model as Theorem 3.1 (one private bit per holder, every node within h
// hops of a holder), it produces a strong-diameter decomposition with
// O(log n) colors and O(log² n) cluster radius — removing the h factor from
// the diameter that Theorem 3.1 suffers.
//
// Following the paper's proof sketch: gather poly(log n) bits per
// pre-cluster exactly as in Lemma 3.2, treat each pre-cluster's bits as a
// seed shared by that cluster's nodes, expand each seed into k-wise
// independent families, and run the Theorem 3.6 phase/epoch carving on the
// engine over the *original* graph with every node drawing from its own
// pre-cluster's families. Bits are fully independent across pre-clusters
// and k-wise within, which is all the Theorem 3.6 analysis needs.
func StrongLowRand(g *graph.Graph, src *randomness.Sparse, holders []int, cfg LowRandConfig) (*StrongLowRandResult, error) {
	n := g.N()
	if n == 0 {
		return &StrongLowRandResult{Decomposition: &Decomposition{}}, nil
	}
	pc, err := gatherPreClusters(g, src, holders, cfg, "StrongLowRand")
	if err != nil {
		return nil, err
	}

	// Expand each pre-cluster's pool into two k-wise families. The seed is
	// whatever the cluster actually gathered — at least kFam·m·2 bits are
	// needed; fail loudly otherwise (theorem precondition violated).
	kFam := pc.lg // independence within a cluster; Θ(log n) suffices per epoch
	need := 2 * kFam * kwiseField
	famsOf := make([][2]*randomness.KWise, len(pc.pools)) // sampling, radius
	for c, pool := range pc.pools {
		if pool.Size() < need {
			return nil, fmt.Errorf("decomp: pre-cluster %d gathered %d bits < %d needed for its families (increase BitsPerCluster)",
				c, pool.Size(), need)
		}
		for j := range famsOf[c] {
			coeffs := make([]uint64, kFam)
			for i := range coeffs {
				coeffs[i] = pool.Word(kwiseField)
			}
			if famsOf[c][j], err = randomness.NewKWiseFromSeed(kwiseField, coeffs); err != nil {
				return nil, err
			}
		}
	}

	c := newCarving(n, SharedRandConfig{})
	center, err := c.kwiseCenters(func(v int) (*randomness.KWise, *randomness.KWise) {
		f := famsOf[pc.pre[v]]
		return f[0], f[1]
	})
	if err != nil {
		return nil, err
	}
	r, err := c.carve(g, center)
	if err != nil {
		return nil, err
	}
	return &StrongLowRandResult{
		Decomposition:  r.Decomposition,
		Phases:         r.Phases,
		BitsGathered:   pc.gathered,
		AnalyticRounds: pc.rulingRounds + 2*pc.hPrime*pc.lg + r.AnalyticRounds,
		Measured:       r.Measured,
	}, nil
}
