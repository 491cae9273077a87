package decomp

import "randlocal/internal/graph"

// This file keeps, as test oracles, the central ball carvings that the
// engine program replaced: each computes exact balls instead of flooding,
// and the tests hold the engine's decompositions equal to theirs.

// sharedRandCore runs the phase/epoch ball-carving of Theorem 3.6 given
// abstract randomness accessors: sample(v, phase, epoch) decides whether an
// active node becomes a center, and radius(v, phase, epoch) draws its
// geometric radius X_u ∈ [1, cap]. Both Theorem 3.6 (global shared seed)
// and Theorem 3.7 (per-cluster gathered seeds) instantiate this core.
//
// Epochs i = 1..p use base radius Ri = (p−i)·c·lg and sampling probability
// min(1, 2^i·lg/n) — except that sample() already encapsulates the
// probability, so the core only supplies (phase, epoch) coordinates. The
// final epoch must sample every active node (guaranteed by callers), which
// makes every phase decide every active node (join or set-aside).
func sharedRandCore(
	g *graph.Graph,
	cfg SharedRandConfig,
	sample func(v, phase, epoch int) bool,
	radius func(v, phase, epoch int) int,
) (*Decomposition, int, int, error) {
	n := g.N()
	lg := log2Ceil(n) + 1
	c := cfg.C
	if c == 0 {
		c = 4
	}
	maxPhases := cfg.MaxPhases
	if maxPhases == 0 {
		maxPhases = 8*lg + 8
	}
	// p epochs: sampling probability 2^i·lg/n reaches 1.
	p := 1
	for (1<<p)*lg < n {
		p++
	}
	cap := c * lg

	d := &Decomposition{Cluster: make([]int, n), Color: make([]int, n)}
	for v := range d.Cluster {
		d.Cluster[v] = -1
		d.Color[v] = -1
	}
	unclustered := n
	analyticRounds := 0
	phases := 0
	for phase := 0; phase < maxPhases && unclustered > 0; phase++ {
		phases++
		setAside := make([]bool, n)
		for epoch := 1; epoch <= p; epoch++ {
			ri := (p - epoch) * c * lg
			analyticRounds += ri + cap + 2
			// Active subgraph for this epoch.
			active := make([]bool, n)
			anyActive := false
			for v := 0; v < n; v++ {
				if d.Cluster[v] < 0 && !setAside[v] {
					active[v] = true
					anyActive = true
				}
			}
			if !anyActive {
				break
			}
			// Sample centers among active nodes and draw radii.
			type reach struct {
				center uint64 // center id = node index
				val    int
			}
			best := make([][]reach, n) // top-2 per node, distinct centers
			merge := func(u int, r reach) {
				lst := best[u]
				for i := range lst {
					if lst[i].center == r.center {
						if r.val > lst[i].val {
							lst[i] = r
						}
						goto sorted
					}
				}
				lst = append(lst, r)
			sorted:
				for i := 1; i < len(lst); i++ {
					for j := i; j > 0; j-- {
						a, b := lst[j], lst[j-1]
						if a.val > b.val || (a.val == b.val && a.center < b.center) {
							lst[j], lst[j-1] = lst[j-1], lst[j]
						}
					}
				}
				if len(lst) > 2 {
					lst = lst[:2]
				}
				best[u] = lst
			}
			for v := 0; v < n; v++ {
				if !active[v] || !sample(v, phase, epoch) {
					continue
				}
				xu := radius(v, phase, epoch)
				if xu < 1 {
					xu = 1
				}
				if xu > cap {
					xu = cap
				}
				total := ri + xu
				// BFS in the active subgraph to depth total.
				dist := map[int]int{v: 0}
				queue := []int{v}
				for head := 0; head < len(queue); head++ {
					u := queue[head]
					if dist[u] == total {
						continue
					}
					for _, w32 := range g.Neighbors(u) {
						w := int(w32)
						if !active[w] {
							continue
						}
						if _, ok := dist[w]; !ok {
							dist[w] = dist[u] + 1
							queue = append(queue, w)
						}
					}
				}
				for u, du := range dist {
					merge(u, reach{center: uint64(v), val: total - du})
				}
			}
			// Decide.
			for u := 0; u < n; u++ {
				if !active[u] || len(best[u]) == 0 {
					continue
				}
				m1 := best[u][0].val
				m2 := 0
				if len(best[u]) > 1 {
					m2 = best[u][1].val
				}
				if m1-m2 > 1 {
					d.Cluster[u] = int(best[u][0].center)
					d.Color[u] = phase
					unclustered--
				} else {
					setAside[u] = true
				}
			}
		}
	}
	if unclustered > 0 {
		return d, phases, analyticRounds, &ErrUnclustered{Count: unclustered}
	}
	// Relabel clusters (center, color) — centers are unique per phase but a
	// set-aside center index could recur in a later phase, so qualify the
	// label with the color.
	labels := map[[2]int]int{}
	for v := 0; v < n; v++ {
		key := [2]int{d.Cluster[v], d.Color[v]}
		if _, ok := labels[key]; !ok {
			labels[key] = len(labels)
		}
		d.Cluster[v] = labels[key]
	}
	return d, phases, analyticRounds, nil
}

// ElkinNeimanReference is a centralized re-implementation of the same
// construction used to cross-validate the message-passing program: given
// the exact radius draws per (node, phase), both must produce identical
// clusterings. It performs exact ball computations instead of flooding.
func ElkinNeimanReference(g *graph.Graph, ids []uint64, maxPhases int, radius func(v, phase int) int) *Decomposition {
	n := g.N()
	d := &Decomposition{Cluster: make([]int, n), Color: make([]int, n)}
	for v := range d.Cluster {
		d.Cluster[v] = -1
		d.Color[v] = -1
	}
	alive := make([]bool, n)
	aliveCount := n
	for v := range alive {
		alive[v] = true
	}
	for phase := 0; phase < maxPhases && aliveCount > 0; phase++ {
		// Exact measures on the subgraph induced by alive nodes.
		type cand struct {
			id  uint64
			val int
		}
		top := make([][]cand, n) // top-2 per alive node
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			rv := radius(v, phase)
			// BFS within the alive subgraph, rv hops.
			dist := map[int]int{v: 0}
			queue := []int{v}
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				if dist[u] == rv {
					continue
				}
				for _, w32 := range g.Neighbors(u) {
					w := int(w32)
					if !alive[w] {
						continue
					}
					if _, ok := dist[w]; !ok {
						dist[w] = dist[u] + 1
						queue = append(queue, w)
					}
				}
			}
			for u, du := range dist {
				val := rv - du
				if val < 0 {
					continue
				}
				c := cand{id: ids[v], val: val}
				lst := append(top[u], c)
				// Keep top-2 by (val desc, id asc).
				for i := 1; i < len(lst); i++ {
					for j := i; j > 0; j-- {
						a, b := lst[j], lst[j-1]
						if a.val > b.val || (a.val == b.val && a.id < b.id) {
							lst[j], lst[j-1] = lst[j-1], lst[j]
						}
					}
				}
				if len(lst) > 2 {
					lst = lst[:2]
				}
				top[u] = lst
			}
		}
		for u := 0; u < n; u++ {
			if !alive[u] || len(top[u]) == 0 {
				continue
			}
			m1 := top[u][0].val
			m2 := 0
			if len(top[u]) > 1 {
				m2 = top[u][1].val
			}
			if m1-m2 > 1 {
				d.Cluster[u] = int(top[u][0].id)
				d.Color[u] = phase
			}
		}
		for u := 0; u < n; u++ {
			if alive[u] && d.Cluster[u] >= 0 {
				alive[u] = false
				aliveCount--
			}
		}
	}
	return d
}
