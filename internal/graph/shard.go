package graph

import "fmt"

// ShardBounds partitions the node range [0, n) into k contiguous shards of
// near-equal half-edge count, returning k+1 ascending boundaries: shard i is
// the node range [bounds[i], bounds[i+1]). Boundary i is the first node at
// or past the ideal half-edge split point i·2m/k, nudged where necessary so
// that every shard holds at least one node.
//
// Sharding by node count balances work only when degrees are uniform; on a
// power-law graph a hub-heavy shard dominates every round barrier. Cutting
// at equal spans of the CSR offsets array balances the quantity the
// simulators actually sweep — half-edges — while keeping shards contiguous,
// which the engines rely on for single-writer inbox windows.
//
// It panics unless 0 < k <= n (callers clamp the worker count first).
func (g *Graph) ShardBounds(k int) []int {
	n := g.N()
	if k <= 0 || k > n {
		panic(fmt.Sprintf("graph: ShardBounds(%d) for n=%d nodes", k, n))
	}
	bounds := make([]int, k+1)
	bounds[k] = n
	h := int64(len(g.adj))
	v := 0
	for i := 1; i < k; i++ {
		target := h * int64(i) / int64(k)
		for v < n && g.off[v] < target {
			v++
		}
		// Keep every shard nonempty: at least one node below this boundary,
		// and enough nodes above it for the k-i shards that remain.
		if lo := bounds[i-1] + 1; v < lo {
			v = lo
		}
		if hi := n - (k - i); v > hi {
			v = hi
		}
		bounds[i] = v
	}
	return bounds
}

// ShardWordBounds maps node shard boundaries (as returned by ShardBounds) to
// word boundaries of a packed half-edge plane that stores 64 half-edge lanes
// per uint64 word: wb[i] = ⌈off[bounds[i]]/64⌉, with
// wb[0] = 0 and wb[k] covering the whole plane. The word ranges
// [wb[i], wb[i+1]) partition the plane's words, so an engine that packs its
// message lanes into bitmaps can give each shard an exclusive word window —
// no two shards ever share a word, hence concurrent scatter needs no atomics
// — at the price of shifting ownership of at most 63 boundary slots per cut
// to the lower shard. wb is ascending because off is; empty word ranges are
// allowed (a shard whose half-edges all sit inside its neighbors' boundary
// words owns no word).
func (g *Graph) ShardWordBounds(bounds []int) []int {
	words := make([]int, len(bounds))
	for i, b := range bounds {
		words[i] = int((g.off[b] + 63) >> 6)
	}
	if len(words) > 0 {
		words[0] = 0
	}
	return words
}
