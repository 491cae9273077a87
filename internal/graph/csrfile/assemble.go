package csrfile

import (
	"math"
	"slices"
)

// Rows assembles sorted, duplicate-free CSR rows from an edge list. It is
// the one routine behind every CSR builder: graph.Builder and RandomRegular
// run it on heap slices, the streaming Builder on views of its file
// mapping.
//
// edges holds one packed u<<32|v per edge, in either orientation, with
// duplicates allowed but no self-loops; deg[v] counts v's endpoints among
// them. Each edge is scattered into both endpoints' rows at prefix-sum
// cursors; then each row is sorted and deduplicated in place and copied
// down to its compacted offset. A compacted row is never longer than its
// raw one, so the copy never overtakes the rows still to be read.
//
// off (len(deg)+1 entries) receives the row offsets and adj (at least
// 2·len(edges) entries) the rows. Rows returns the half-edge count h: the
// graph is off, adj[:h]. deg is left as it was.
func Rows(deg []int64, edges []uint64, off []int64, adj []int32) int64 {
	off[0] = 0
	for v, d := range deg {
		off[v+1] = off[v] + d
	}
	for _, e := range edges {
		u, v := e>>32, e&math.MaxUint32
		adj[off[u]] = int32(v)
		off[u]++
		adj[off[v]] = int32(u)
		off[v]++
	}
	var raw, h int64
	for v, d := range deg {
		row := adj[raw : raw+d]
		raw += d
		slices.Sort(row)
		row = slices.Compact(row)
		off[v] = h
		h += int64(copy(adj[h:], row))
	}
	off[len(deg)] = h
	return h
}

// ReversePorts fills rev[i], for every half-edge i of the sorted,
// duplicate-free rows off/adj, with the index of its reverse half-edge.
// Scanning adj in order visits, for each fixed neighbor w, the sources in
// ascending order — w's own row order — so a per-node cursor hands out the
// reverse positions in O(m). cur (one entry per node) is overwritten: it
// becomes the cursor array.
func ReversePorts(off []int64, adj, rev []int32, cur []int64) {
	clear(cur)
	for i, w := range adj {
		rev[i] = int32(off[w] + cur[w])
		cur[w]++
	}
}
