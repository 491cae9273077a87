package csrfile_test

// oracleCSR assembles the CSR arrays of edges on n nodes (self-loops
// dropped, duplicates kept) with the counting sort both builders used before
// they shared Rows and ReversePorts — the same oracle as
// internal/graph/oracle_test.go, which this package's tests cannot import.
// It shares no code with the core it checks.
func oracleCSR(n int, edges [][2]int) (off []int64, adj, rev []int32) {
	var pairs []uint64
	for _, e := range edges {
		if u, v := e[0], e[1]; u != v {
			pairs = append(pairs, uint64(u)<<32|uint64(v), uint64(v)<<32|uint64(u))
		}
	}
	// Two stable counting-sort passes — by v, then by u — leave the
	// half-edges in (u, v) lexicographic order, so rows come out sorted and
	// duplicates sit adjacent.
	byV := make([]uint64, len(pairs))
	count := make([]int64, n+1)
	for _, p := range pairs {
		count[uint32(p)+1]++
	}
	for i := 1; i <= n; i++ {
		count[i] += count[i-1]
	}
	for _, p := range pairs {
		k := uint32(p)
		byV[count[k]] = p
		count[k]++
	}
	sorted := make([]uint64, len(pairs))
	for i := range count {
		count[i] = 0
	}
	for _, p := range byV {
		count[(p>>32)+1]++
	}
	for i := 1; i <= n; i++ {
		count[i] += count[i-1]
	}
	for _, p := range byV {
		k := p >> 32
		sorted[count[k]] = p
		count[k]++
	}
	// Dedup while writing the flat neighbor array and per-node row sizes.
	off = make([]int64, n+1)
	adj = make([]int32, 0, len(sorted))
	prev := ^uint64(0) // impossible pair: u == v is never recorded
	for _, p := range sorted {
		if p == prev {
			continue
		}
		prev = p
		off[(p>>32)+1]++
		adj = append(adj, int32(uint32(p)))
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	// Reverse ports: scanning half-edges (u → w) in global order visits, for
	// each fixed w, the sources u in ascending order — exactly w's own row
	// order — so a per-node cursor hands out the reverse positions.
	rev = make([]int32, len(adj))
	cur := make([]int32, n)
	for u := 0; u < n; u++ {
		for i := off[u]; i < off[u+1]; i++ {
			w := adj[i]
			rev[i] = int32(off[w]) + cur[w]
			cur[w]++
		}
	}
	return off, adj, rev
}
