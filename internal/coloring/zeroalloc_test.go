package coloring

import (
	"os"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// TestMain enables the engine's poisoned-Outbox check for the package's
// whole test run (the trial-color program assembles its outbox in the
// NodeCtx.Outbox scratch via BroadcastActive).
func TestMain(m *testing.M) {
	sim.SetDebugOutboxCheck(true)
	os.Exit(m.Run())
}

// TestColoringSteadyStateRoundsAllocNothing measures both halves of a
// trial-color phase under testing.AllocsPerRun: the candidate-broadcast
// round (draw injected, payload carved from the arena, outbox from the
// engine scratch) and the conflict-resolution round (scratch-array decode),
// asserting zero allocations each.
func TestColoringSteadyStateRoundsAllocNothing(t *testing.T) {
	const deg = 5
	nids := []uint64{100, 101, 102, 103, 104}
	ctx, rotate := sim.NewBenchCtx(deg, 42, 1024, nids)
	prog := &program{cfg: &Config{Candidate: func(v, phase, paletteSize int) int { return 0 }}}
	prog.Init(ctx)

	// Candidate round: one FINAL announcement in the inbox (struck and its
	// port deactivated on the first call; a no-op on repeats), the rest
	// candidate noise this round ignores.
	inbox := make([]sim.Message, deg)
	inbox[0] = sim.Uints(msgFinal, 5)
	inbox[1] = sim.Uints(msgCandidate, 2)
	avg := testing.AllocsPerRun(100, func() {
		rotate()
		prog.Round(0, inbox)
	})
	if avg != 0 {
		t.Errorf("candidate round allocates %.1f times, want 0", avg)
	}

	// Resolution round: a higher-ID neighbor drew the same candidate, so the
	// node concedes and stays silent — the pure decode path.
	conflict := make([]sim.Message, deg)
	conflict[2] = sim.Uints(msgCandidate, uint64(prog.candidate))
	avg = testing.AllocsPerRun(100, func() {
		rotate()
		prog.Round(1, conflict)
	})
	if avg != 0 {
		t.Errorf("resolution round allocates %.1f times, want 0", avg)
	}
}

// TestRandomizedRunAllocs pins per-node setup of a trial-coloring run at
// (near) zero allocations: programs, palettes and port masks come from
// per-run slabs, so a run gains at most 1 allocation per 64 nodes added
// when the network doubles from 1024 nodes (one per node would be 1024).
func TestRandomizedRunAllocs(t *testing.T) {
	runAllocs := func(n int) float64 {
		g := graph.GNPConnected(n, 6.0/float64(n), prng.New(67))
		seed := uint64(0)
		return testing.AllocsPerRun(2, func() {
			seed++
			if _, _, err := Randomized(g, randomness.NewFull(seed), nil, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 1024
	small, large := runAllocs(n), runAllocs(2*n)
	t.Logf("coloring allocations per run: %.0f at %d nodes, %.0f at %d nodes", small, n, large, 2*n)
	if large-small > n/64 {
		t.Errorf("doubling the network from %d nodes adds %.0f allocations per run, want at most %d (1 per 64 nodes)",
			n, large-small, n/64)
	}
}
