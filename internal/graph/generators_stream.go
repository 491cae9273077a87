package graph

import "randlocal/internal/prng"

// GNPConnectedStream emits the edges of a connected G(n, p) sample — the
// graph GNPConnected builds — without ever materializing a Graph, so
// streaming builders (csrfile.Builder) can construct instances whose edge
// arrays exceed RAM. Peak memory is O(n): a union-find forest tracks the
// components while the G(n, p) edges stream past, and consecutive components
// (numbered by their minimum-index member, members in ascending node order)
// are then linked by one edge between random representatives.
//
// Emission order is not Graph.Edges order, which is fine for any
// order-insensitive consumer (both CSR builders sort every row).
// TestGNPConnectedStreamMatches holds the result to a BFS-labeled reference
// construction, and TestGNPDigestPins pins the graphs themselves.
func GNPConnectedStream(n int, p float64, rng *prng.SplitMix64, emit func(u, v int)) {
	d := newDSU(n)
	gnpPairs(n, p, rng, func(u, v int) {
		emit(u, v)
		d.union(u, v)
	})
	// Link the components: numbered by minimum member, members listed in
	// ascending node order, one rng.Intn per endpoint.
	comp := make([]int32, n)
	k := 0
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	for v := 0; v < n; v++ {
		r := d.find(v)
		if label[r] < 0 {
			label[r] = int32(k)
			k++
		}
		comp[v] = label[r]
	}
	if k <= 1 {
		return
	}
	reps := make([][]int, k)
	for v := 0; v < n; v++ {
		reps[comp[v]] = append(reps[comp[v]], v)
	}
	for c := 1; c < k; c++ {
		u := reps[c-1][rng.Intn(len(reps[c-1]))]
		v := reps[c][rng.Intn(len(reps[c]))]
		emit(u, v)
	}
}

// dsu is a union-find forest with union by rank and path halving — the O(n)
// stand-in for Components' BFS labeling during streaming generation.
type dsu struct {
	parent []int32
	rank   []uint8
}

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int32, n), rank: make([]uint8, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

func (d *dsu) find(v int) int {
	for int(d.parent[v]) != v {
		d.parent[v] = d.parent[d.parent[v]] // path halving
		v = int(d.parent[v])
	}
	return v
}

func (d *dsu) union(u, v int) {
	ru, rv := d.find(u), d.find(v)
	if ru == rv {
		return
	}
	if d.rank[ru] < d.rank[rv] {
		ru, rv = rv, ru
	}
	d.parent[rv] = int32(ru)
	if d.rank[ru] == d.rank[rv] {
		d.rank[ru]++
	}
}
