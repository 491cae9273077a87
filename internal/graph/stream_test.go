package graph

import (
	"testing"

	"randlocal/internal/prng"
)

// gnpConnectedBFS is the reference for GNPConnectedStream: GNP, then
// Components' BFS labeling, then one link per consecutive component pair.
// It shares no code with the union-find emitter beyond GNP itself.
func gnpConnectedBFS(n int, p float64, rng *prng.SplitMix64) *Graph {
	g := GNP(n, p, rng)
	comp, k := Components(g)
	if k <= 1 {
		return g
	}
	reps := make([][]int, k)
	for v := 0; v < n; v++ {
		reps[comp[v]] = append(reps[comp[v]], v)
	}
	b := NewBuilder(n)
	g.Edges(b.AddEdge)
	for c := 1; c < k; c++ {
		u := reps[c-1][rng.Intn(len(reps[c-1]))]
		v := reps[c][rng.Intn(len(reps[c]))]
		b.AddEdge(u, v)
	}
	return b.Graph()
}

// TestGNPConnectedStreamMatches is the golden guarantee behind csrgen's gnp
// streaming and GNPConnected: the union-find emitter must reproduce the
// BFS-labeled construction exactly — same rng draw order, same linking
// representatives — for every regime of p.
func TestGNPConnectedStreamMatches(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 100, 257} {
		for _, p := range []float64{0, 0.01, 0.5, 1} {
			for seed := uint64(1); seed <= 5; seed++ {
				want := gnpConnectedBFS(n, p, prng.New(seed))
				got := GNPConnected(n, p, prng.New(seed))
				if !want.Equal(got) {
					t.Fatalf("n=%d p=%v seed=%d: streamed graph differs (want %v, got %v)",
						n, p, seed, want, got)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("n=%d p=%v seed=%d: %v", n, p, seed, err)
				}
			}
		}
	}
	// The sparse regime the experiments actually use.
	for seed := uint64(1); seed <= 5; seed++ {
		n := 1 << 12
		p := 4.0 / float64(n)
		if !gnpConnectedBFS(n, p, prng.New(seed)).Equal(GNPConnected(n, p, prng.New(seed))) {
			t.Fatalf("n=%d p=4/n seed=%d: streamed graph differs", n, seed)
		}
	}
}

// TestBuilderHalfEdgeOverflowGuard exercises the int32 guard through a
// lowered cap: without it, a ≥ 2^31-half-edge graph would wrap the int32
// conversions and corrupt the CSR tables silently.
func TestBuilderHalfEdgeOverflowGuard(t *testing.T) {
	old := maxHalfEdges
	maxHalfEdges = 6
	defer func() { maxHalfEdges = old }()

	b := NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3) // exactly at the cap: fine
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddEdge past the half-edge cap did not panic")
			}
		}()
		b.AddEdge(3, 4)
	}()
	// The builder is still usable at the cap, and finalizes cleanly.
	if g := b.Graph(); g.M() != 3 {
		t.Fatalf("M() = %d after the guard fired, want 3", g.M())
	}

	// Edges recorded under a higher cap are refused at assembly:
	// Builder.Graph checks the count before running the CSR core, and
	// RandomRegular before it draws.
	b = NewBuilder(10)
	maxHalfEdges = old
	for v := 1; v <= 4; v++ {
		b.AddEdge(0, v)
	}
	maxHalfEdges = 6
	for name, build := range map[string]func(){
		"Builder.Graph": func() { b.Graph() },
		"RandomRegular": func() { RandomRegular(10, 2, prng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s past the cap did not panic", name)
				}
			}()
			build()
		}()
	}
}
