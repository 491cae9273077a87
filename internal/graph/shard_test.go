package graph

import (
	"testing"

	"randlocal/internal/prng"
)

func TestShardBoundsInvariants(t *testing.T) {
	rng := prng.New(31)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"ring", Ring(40)},
		{"gnp", GNPConnected(120, 0.06, rng)},
		{"powerlaw", PowerLaw(150, 3, rng)},
		{"star", FromEdges(50, starEdges(50))},
		{"edgeless", NewBuilder(20).Graph()},
	}
	for _, tg := range graphs {
		n := tg.g.N()
		for _, k := range []int{1, 2, 3, 7, n} {
			bounds := tg.g.ShardBounds(k)
			if len(bounds) != k+1 {
				t.Fatalf("%s k=%d: %d bounds", tg.name, k, len(bounds))
			}
			if bounds[0] != 0 || bounds[k] != n {
				t.Errorf("%s k=%d: bounds span [%d,%d], want [0,%d]", tg.name, k, bounds[0], bounds[k], n)
			}
			for i := 0; i < k; i++ {
				if bounds[i+1] <= bounds[i] {
					t.Errorf("%s k=%d: empty shard %d: [%d,%d)", tg.name, k, i, bounds[i], bounds[i+1])
				}
			}
		}
	}
}

// TestShardBoundsBalanceByHalfEdges checks the point of the helper: on a
// skewed degree distribution the half-edge spans stay near the ideal 2m/k —
// each span overshoots by at most one node's degree — where equal node-count
// shards can be off by orders of magnitude.
func TestShardBoundsBalanceByHalfEdges(t *testing.T) {
	g := PowerLaw(400, 4, prng.New(9))
	off, _, _ := g.CSR()
	h := int64(len(g.adj))
	k := 4
	ideal := h / int64(k)
	bounds := g.ShardBounds(k)
	for i := 0; i < k; i++ {
		span := off[bounds[i+1]] - off[bounds[i]]
		if span > ideal+int64(g.MaxDegree())+1 {
			t.Errorf("shard %d holds %d half-edges, ideal %d, Δ=%d", i, span, ideal, g.MaxDegree())
		}
	}

	// The star graph is the extreme case: node-count sharding gives one
	// shard the hub plus nothing and the other all leaves' half-edges;
	// half-edge sharding isolates the hub.
	star := FromEdges(101, starEdges(101))
	b := star.ShardBounds(2)
	if b[1] != 1 {
		t.Errorf("star boundary = %d, want 1 (hub isolated)", b[1])
	}
}

func TestShardBoundsLiveInvariants(t *testing.T) {
	rng := prng.New(53)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"ring", Ring(60)},
		{"gnp", GNPConnected(140, 0.05, rng)},
		{"powerlaw", PowerLaw(160, 3, rng)},
		{"star", FromEdges(80, starEdges(80))},
		{"edgeless", NewBuilder(30).Graph()},
	}
	for _, tg := range graphs {
		n := tg.g.N()
		// Several survivor patterns: every third node, a contiguous block,
		// and a random thinning — all ascending, as the engines maintain.
		lives := [][]int32{makeLive(n, func(v int) bool { return v%3 == 0 })}
		lives = append(lives, makeLive(n, func(v int) bool { return v >= n/2 }))
		lives = append(lives, makeLive(n, func(v int) bool { return rng.Intn(4) != 0 }))
		for _, live := range lives {
			for _, k := range []int{1, 2, 3, 5, len(live)} {
				if k > len(live) {
					continue
				}
				bounds := tg.g.ShardBoundsLive(k, live)
				if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != n {
					t.Fatalf("%s k=%d: bounds %v, want 0..%d in %d cuts", tg.name, k, bounds, n, k)
				}
				li := 0
				for i := 0; i < k; i++ {
					if bounds[i+1] <= bounds[i] {
						t.Errorf("%s k=%d: shard %d is empty: [%d,%d)", tg.name, k, i, bounds[i], bounds[i+1])
					}
					inShard := 0
					for li < len(live) && int(live[li]) < bounds[i+1] {
						inShard++
						li++
					}
					if inShard == 0 {
						t.Errorf("%s k=%d: shard %d [%d,%d) holds no live node", tg.name, k, i, bounds[i], bounds[i+1])
					}
				}
				if li != len(live) {
					t.Errorf("%s k=%d: %d live nodes fell outside all shards", tg.name, k, len(live)-li)
				}
			}
		}
	}
}

// TestShardBoundsLiveBalance checks the re-sharding payoff: when the
// survivors cluster in one corner of the node range, the live half-edge
// spans stay near ideal even though the plain whole-graph cut would give
// one shard everything.
func TestShardBoundsLiveBalance(t *testing.T) {
	g := GNPConnected(300, 0.04, prng.New(17))
	// Survivors: the last sixth of the node range.
	live := makeLive(g.N(), func(v int) bool { return v >= 250 })
	k := 4
	var total int64
	for _, v := range live {
		total += int64(g.Degree(int(v)))
	}
	bounds := g.ShardBoundsLive(k, live)
	ideal := total / int64(k)
	li := 0
	for i := 0; i < k; i++ {
		var span int64
		for li < len(live) && int(live[li]) < bounds[i+1] {
			span += int64(g.Degree(int(live[li])))
			li++
		}
		if span > ideal+int64(g.MaxDegree())+1 {
			t.Errorf("shard %d holds %d live half-edges, ideal %d, Δ=%d", i, span, ideal, g.MaxDegree())
		}
	}
}

func TestShardBoundsLivePanicsOutOfRange(t *testing.T) {
	g := Ring(6)
	live := []int32{1, 3, 5}
	for _, k := range []int{0, -1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardBoundsLive(%d) did not panic", k)
				}
			}()
			g.ShardBoundsLive(k, live)
		}()
	}
}

// TestShardBoundsLiveDegenerate pins the edge cases the engines can feed
// the re-sharding primitive: an empty worklist (no k is valid — the call
// must panic rather than return shards with no live node), a single live
// node, and a worklist made entirely of isolated (zero-degree) nodes, where
// every prefix sum stalls at zero and only the one-node-per-shard clamps
// place the boundaries.
func TestShardBoundsLiveDegenerate(t *testing.T) {
	g := Ring(12)

	// Empty worklist: k <= len(live) can't hold for any positive k.
	for _, k := range []int{1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardBoundsLive(%d, empty) did not panic", k)
				}
			}()
			g.ShardBoundsLive(k, nil)
		}()
	}

	// Single live node: the only valid k is 1, and the one shard must span
	// the whole node range.
	for _, v := range []int32{0, 5, 11} {
		bounds := g.ShardBoundsLive(1, []int32{v})
		if len(bounds) != 2 || bounds[0] != 0 || bounds[1] != g.N() {
			t.Errorf("single live node %d: bounds %v", v, bounds)
		}
	}

	// All-isolated-node worklist: an edgeless graph's live nodes all have
	// degree zero, so the target scan never advances and every boundary
	// comes from the clamps. Shards must still tile [0, n) with at least
	// one live node each.
	edgeless := NewBuilder(20).Graph()
	live := makeLive(20, func(v int) bool { return v%2 == 0 })
	for _, k := range []int{1, 2, 3, len(live)} {
		bounds := edgeless.ShardBoundsLive(k, live)
		if bounds[0] != 0 || bounds[k] != 20 {
			t.Fatalf("edgeless k=%d: bounds %v do not tile [0,20)", k, bounds)
		}
		li := 0
		for i := 0; i < k; i++ {
			if bounds[i+1] <= bounds[i] {
				t.Errorf("edgeless k=%d: empty shard %d: %v", k, i, bounds)
			}
			inShard := 0
			for li < len(live) && int(live[li]) < bounds[i+1] {
				inShard++
				li++
			}
			if inShard == 0 {
				t.Errorf("edgeless k=%d: shard %d [%d,%d) has no live node", k, i, bounds[i], bounds[i+1])
			}
		}
	}

	// Mixed case: isolated live nodes interleaved with connected ones on a
	// disjoint ring + isolated block.
	mixed := Disjoint(Ring(10), NewBuilder(10).Graph())
	liveMixed := makeLive(mixed.N(), func(v int) bool { return v%2 == 1 })
	bounds := mixed.ShardBoundsLive(3, liveMixed)
	if bounds[0] != 0 || bounds[3] != mixed.N() {
		t.Fatalf("mixed: bounds %v", bounds)
	}
	for i := 0; i < 3; i++ {
		if bounds[i+1] <= bounds[i] {
			t.Errorf("mixed: empty shard %d: %v", i, bounds)
		}
	}
}

// TestShardBoundsLiveInto checks the scratch-reusing variant: identical
// bounds to the allocating form, and zero allocations once the scratch has
// reached steady size — the property that makes a frequent re-shard cadence
// cheap.
func TestShardBoundsLiveInto(t *testing.T) {
	g := PowerLaw(200, 3, prng.New(7))
	live := makeLive(g.N(), func(v int) bool { return v%3 != 0 })
	for _, k := range []int{1, 2, 5} {
		want := g.ShardBoundsLive(k, live)
		bounds, prefix := g.ShardBoundsLiveInto(k, live, nil, nil)
		if len(bounds) != len(want) {
			t.Fatalf("k=%d: Into bounds %v != %v", k, bounds, want)
		}
		for i := range want {
			if bounds[i] != want[i] {
				t.Fatalf("k=%d: Into bounds %v != %v", k, bounds, want)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			bounds, prefix = g.ShardBoundsLiveInto(k, live, bounds, prefix)
		})
		if allocs != 0 {
			t.Errorf("k=%d: %v allocs/cut with warm scratch, want 0", k, allocs)
		}
	}
}

func makeLive(n int, keep func(v int) bool) []int32 {
	var live []int32
	for v := 0; v < n; v++ {
		if keep(v) {
			live = append(live, int32(v))
		}
	}
	return live
}

func TestShardBoundsPanicsOutOfRange(t *testing.T) {
	g := Ring(5)
	for _, k := range []int{0, -1, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardBounds(%d) did not panic", k)
				}
			}()
			g.ShardBounds(k)
		}()
	}
}

func starEdges(n int) [][2]int {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	return edges
}

// TestShardWordBounds checks the word-boundary mapping the packed parallel
// engine hands its workers: ascending, spanning exactly the plane's words,
// and consistent with the node bounds — every half-edge of shard i's nodes
// lives at a word index in [wb[i], wb[i+1]) except the at-most-63 boundary
// slots that shift into the lower shard's last word.
func TestShardWordBounds(t *testing.T) {
	rng := prng.New(71)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"ring-odd", Ring(67)},
		{"gnp", GNPConnected(130, 0.05, rng)},
		{"powerlaw", PowerLaw(150, 3, rng)},
		{"star", FromEdges(50, starEdges(50))},
		{"edgeless", NewBuilder(20).Graph()},
	}
	for _, tg := range graphs {
		n := tg.g.N()
		off, _, _ := tg.g.CSR()
		planeWords := (len(tg.g.adj) + 63) >> 6
		for _, k := range []int{1, 2, 3, 7, n} {
			bounds := tg.g.ShardBounds(k)
			wb := tg.g.ShardWordBounds(bounds)
			if len(wb) != k+1 {
				t.Fatalf("%s k=%d: %d word bounds", tg.name, k, len(wb))
			}
			if wb[0] != 0 || wb[k] != planeWords {
				t.Errorf("%s k=%d: word span [%d,%d], want [0,%d]", tg.name, k, wb[0], wb[k], planeWords)
			}
			for i := 0; i < k; i++ {
				if wb[i+1] < wb[i] {
					t.Errorf("%s k=%d: descending word bound %d: %d > %d", tg.name, k, i, wb[i], wb[i+1])
				}
				// Consistency: wb[i+1] is the rounded-up word of the node
				// boundary, so no half-edge of shard i sits at or past word
				// wb[i+1] — at most 63 boundary slots shift downward, never up.
				if want := int((off[bounds[i+1]] + 63) >> 6); wb[i+1] != want {
					t.Errorf("%s k=%d: word bound %d = %d, want ⌈off/64⌉ = %d",
						tg.name, k, i+1, wb[i+1], want)
				}
			}
			// Scratch reuse returns identical bounds without reallocating.
			scratch := make([]int, 0, k+1)
			wb2 := tg.g.ShardWordBoundsInto(bounds, scratch)
			for i := range wb {
				if wb2[i] != wb[i] {
					t.Fatalf("%s k=%d: Into mismatch at %d: %d != %d", tg.name, k, i, wb2[i], wb[i])
				}
			}
			if k+1 <= cap(scratch) && &wb2[0] != &scratch[:1][0] {
				t.Errorf("%s k=%d: ShardWordBoundsInto reallocated despite capacity", tg.name, k)
			}
		}
	}
}
