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
		}
	}
}
