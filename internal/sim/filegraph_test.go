package sim

import (
	"fmt"
	"path/filepath"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/graph/csrfile"
	"randlocal/internal/prng"
)

// streamedFile writes g's edges through csrfile.Builder, the streaming
// builder csrgen uses, and reopens the file as a mapping-backed graph: every
// engine run against the result executes over the read-only mapped arrays
// (zero-copy on little-endian hosts), so any engine that mutated the CSR in
// place would fault here rather than corrupt a file.
func streamedFile(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	b, err := csrfile.NewBuilder(path, g.N())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < int(v) {
				b.AddEdge(u, int(v))
			}
		}
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	fg, closer, err := graph.OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := closer.Close(); cerr != nil {
			t.Errorf("closing mapping: %v", cerr)
		}
	})
	return fg
}

// TestFileBackedEquivalence is the engine half of the out-of-core guarantee:
// swapping the in-RAM CSR for the mmap-backed one changes nothing observable.
// One worker and an eight-worker pool, in both representations, must produce
// a byte-identical Result to the in-RAM one-worker baseline — the same bar
// the packed planes are held to.
func TestFileBackedEquivalence(t *testing.T) {
	rng := prng.New(3041)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring-odd", graph.Ring(67)},
		{"star", graph.Star(71)},
		{"gnp", graph.GNPConnected(120, 0.04, rng)},
		{"powerlaw", graph.PowerLaw(130, 3, rng)},
	}
	for _, tg := range graphs {
		t.Run(tg.name, func(t *testing.T) {
			fg := streamedFile(t, tg.g)
			if !fg.Equal(tg.g) {
				t.Fatal("file round-trip changed the graph")
			}
			n := tg.g.N()
			key := NewSimulationKey(uint64(n)*19 + 5)
			ids := RandomIDs(n, n, key)
			rounds := graph.Diameter(tg.g) + 2
			factory := func(int) NodeProgram[uint64] { return &bitGossip{rounds: rounds} }
			cfg := func(g *graph.Graph) Config {
				return Config{Graph: g, IDs: ids, MaxMessageBits: CongestBits(n), Source: key.FullSource(), Telemetry: true}
			}

			want, err := Run(cfg(tg.g), factory)
			if err != nil {
				t.Fatal(err)
			}

			got, err := Run(cfg(fg), factory)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, "sequential", want, got)
			requirePackedModes(t, "sequential", got)
			requireStagedSum(t, "sequential", got)

			for _, unpack := range []bool{false, true} {
				c := cfg(fg)
				c.Unpacked = unpack
				got, err := RunParallel(c, factory, 8)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, fmt.Sprintf("parallel/workers=8/unpacked=%v", unpack), want, got)
			}
		})
	}
}
