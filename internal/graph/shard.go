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

// ShardWordBounds maps node shard boundaries (as returned by ShardBounds or
// ShardBoundsLive) to word boundaries of a packed half-edge plane that stores
// 64 half-edge lanes per uint64 word: wb[i] = ⌈off[bounds[i]]/64⌉, with
// wb[0] = 0 and wb[k] covering the whole plane. The word ranges
// [wb[i], wb[i+1]) partition the plane's words, so an engine that packs its
// message lanes into bitmaps can give each shard an exclusive word window —
// no two shards ever share a word, hence concurrent scatter needs no atomics
// — at the price of shifting ownership of at most 63 boundary slots per cut
// to the lower shard. wb is ascending because off is; empty word ranges are
// allowed (a shard whose half-edges all sit inside its neighbors' boundary
// words owns no word).
func (g *Graph) ShardWordBounds(bounds []int) []int {
	return g.ShardWordBoundsInto(bounds, nil)
}

// ShardWordBoundsInto is ShardWordBounds with caller-owned scratch, for
// engines that re-cut repeatedly; words is grown as needed and returned.
func (g *Graph) ShardWordBoundsInto(bounds, words []int) []int {
	if cap(words) < len(bounds) {
		words = make([]int, len(bounds))
	} else {
		words = words[:len(bounds)]
	}
	for i, b := range bounds {
		words[i] = int((g.off[b] + 63) >> 6)
	}
	if len(words) > 0 {
		words[0] = 0
	}
	return words
}

// ShardBoundsLive re-cuts the node range [0, n) into k contiguous shards of
// near-equal *surviving* half-edge count: live is the ascending list of node
// indices still running, and each boundary is placed between live nodes so
// that every shard carries a near-equal share of the live nodes' half-edges.
// Like ShardBounds it returns k+1 ascending node boundaries with bounds[0] =
// 0 and bounds[k] = n, so the shards still tile the whole node range —
// halted nodes ride along with whichever shard the cut lands them in, which
// keeps each shard's half-edge window contiguous (the engines' single-writer
// invariant). Every shard contains at least one live node.
//
// This is the re-sharding primitive for the shattering-style tail: once the
// live fringe has shrunk, the initial whole-graph cut can leave most workers
// idle, and re-cutting over the survivors rebalances the pool in O(live + n)
// time. It panics unless 0 < k <= len(live); live must be ascending within
// [0, n) (the engines' worklists are).
func (g *Graph) ShardBoundsLive(k int, live []int32) []int {
	bounds, _ := g.ShardBoundsLiveInto(k, live, nil, nil)
	return bounds
}

// ShardBoundsLiveInto is ShardBoundsLive with caller-owned scratch, for
// engines that re-cut repeatedly: bounds and prefix are grown as needed and
// returned, so a caller that passes back what it received pays no allocation
// per cut once the scratch has reached steady size. The prefix array —
// O(live) — dominates the price of a cut, so recycling it is what makes an
// adaptive re-shard cadence cheap enough to measure honestly. The returned
// bounds slice has length k+1 and the same contract as ShardBoundsLive.
func (g *Graph) ShardBoundsLiveInto(k int, live []int32, bounds []int, prefix []int64) ([]int, []int64) {
	n := g.N()
	if k <= 0 || k > len(live) {
		panic(fmt.Sprintf("graph: ShardBoundsLive(%d) for %d live nodes", k, len(live)))
	}
	// prefix[j] is the half-edge count of live[:j].
	if cap(prefix) < len(live)+1 {
		prefix = make([]int64, len(live)+1)
	} else {
		prefix = prefix[:len(live)+1]
	}
	prefix[0] = 0
	for j, v := range live {
		prefix[j+1] = prefix[j] + (g.off[v+1] - g.off[v])
	}
	total := prefix[len(live)]
	if cap(bounds) < k+1 {
		bounds = make([]int, k+1)
	} else {
		bounds = bounds[:k+1]
	}
	bounds[0] = 0
	bounds[k] = n
	j := 0    // index into live of the first live node of shard i
	prev := 0 // j of the previous boundary, so every shard gets a live node
	for i := 1; i < k; i++ {
		target := total * int64(i) / int64(k)
		for j < len(live) && prefix[j] < target {
			j++
		}
		// Keep at least one live node per shard on both sides of the cut
		// (the scan can stall on zero-degree live nodes or overshoot on a
		// hub, so both clamps are load-bearing).
		if j <= prev {
			j = prev + 1
		}
		if hi := len(live) - (k - i); j > hi {
			j = hi
		}
		bounds[i] = int(live[j])
		prev = j
	}
	return bounds, prefix
}
