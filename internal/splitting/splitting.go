// Package splitting implements the splitting problem of Ghaffari, Kuhn and
// Maus [GKM17] that Lemma 3.4 of the paper is about: given a bipartite
// graph H = (U, V, E) where every U-node has at least Ω(log^c n) V-side
// neighbors, 2-color V so that every U-node sees both colors. The problem
// is P-SLOCAL-complete, yet randomized algorithms solve it in ZERO rounds —
// each V-node colors itself by a coin flip — which is why it "nicely
// captures the power of randomness".
//
// The three solvers mirror the lemma's three randomness regimes: fresh
// private coins (baseline), a k-wise independent family expanded from
// O(k·log n) shared bits, and a Naor–Naor-style small-bias space from
// O(log n) shared bits. All three are genuinely zero-round: a V-node's
// color is a function of its own identifier and the (shared) seed only.
package splitting

import (
	"fmt"

	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

// Instance is a bipartite splitting instance: AdjU[u] lists the V-side
// neighbors of U-node u; NV is the size of the V side.
type Instance struct {
	NV   int
	AdjU [][]int
}

// Validate checks index ranges and the minimum-degree requirement.
func (in *Instance) Validate(minDegree int) error {
	for u, ns := range in.AdjU {
		if len(ns) < minDegree {
			return fmt.Errorf("splitting: U-node %d has degree %d < required %d", u, len(ns), minDegree)
		}
		for _, v := range ns {
			if v < 0 || v >= in.NV {
				return fmt.Errorf("splitting: U-node %d references V-node %d out of range", u, v)
			}
		}
	}
	return nil
}

// Check reports whether colors solve the instance: every U-node sees both
// colors among its neighbors.
func (in *Instance) Check(colors []int) bool {
	for _, ns := range in.AdjU {
		var saw [2]bool
		for _, v := range ns {
			saw[colors[v]&1] = true
		}
		if !saw[0] || !saw[1] {
			return false
		}
	}
	return true
}

// RandomInstance generates an instance with nu U-nodes, nv V-nodes and
// exactly degree distinct neighbors per U-node, sampled uniformly.
func RandomInstance(nu, nv, degree int, rng *prng.SplitMix64) *Instance {
	if degree > nv {
		panic(fmt.Sprintf("splitting: degree %d exceeds nv %d", degree, nv))
	}
	inst := &Instance{NV: nv, AdjU: make([][]int, nu)}
	for u := range inst.AdjU {
		perm := rng.Perm(nv)
		inst.AdjU[u] = append([]int(nil), perm[:degree]...)
	}
	return inst
}

// SolvePrivate colors every V-node by one fresh private coin — the
// standard zero-round randomized algorithm. It consumes exactly NV true
// random bits from the source.
func SolvePrivate(in *Instance, src randomness.Source) []int {
	colors := make([]int, in.NV)
	for v := range colors {
		colors[v] = int(src.Stream(v).Bit())
	}
	return colors
}

// SolveKWise colors V-node v by the k-wise family bit at point v. With
// k = Θ(log n) the limited-independence Chernoff bound of [SSS95] gives
// the same w.h.p. guarantee as fresh coins, from only k·m seed bits.
func SolveKWise(in *Instance, fam *randomness.KWise) []int {
	colors := make([]int, in.NV)
	for v := range colors {
		colors[v] = int(fam.Bit(uint64(v)))
	}
	return colors
}

// SolveEpsBias colors V-node v by the small-bias generator's bit at
// position v — the Naor–Naor argument of Lemma 3.4 that pushes the seed
// down to O(log n) bits.
func SolveEpsBias(in *Instance, gen *randomness.EpsBias) []int {
	colors := make([]int, in.NV)
	for v := range colors {
		colors[v] = int(gen.Bit(uint64(v)))
	}
	return colors
}
