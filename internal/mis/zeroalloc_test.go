package mis

import (
	"os"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// TestMain enables the engine's poisoned-Outbox check for the package's
// whole test run (Luby assembles its outbox in the NodeCtx.Outbox scratch).
func TestMain(m *testing.M) {
	sim.SetDebugOutboxCheck(true)
	os.Exit(m.Run())
}

// TestLubySteadyStateRoundsAllocNothing measures both halves of a Luby
// phase under testing.AllocsPerRun: the priority broadcast (injected draw,
// arena payload, engine-scratch outbox) and the losing comparison round
// (scratch-array decode, no sends), asserting zero allocations each.
func TestLubySteadyStateRoundsAllocNothing(t *testing.T) {
	const deg = 6
	nids := []uint64{100, 101, 102, 103, 104, 105}
	ctx, rotate := sim.NewBenchCtx(deg, 42, 1024, nids)
	prog := &lubyProgram{cfg: &LubyConfig{Priority: func(v, phase int) uint64 { return 77 }}}
	prog.Init(ctx)

	empty := make([]sim.Message, deg)
	avg := testing.AllocsPerRun(100, func() {
		rotate()
		prog.Round(0, empty)
	})
	if avg != 0 {
		t.Errorf("priority round allocates %.1f times, want 0", avg)
	}

	// A neighbor with a higher priority: the node loses and stays silent.
	lose := make([]sim.Message, deg)
	lose[3] = sim.Uints(msgPriority, 1000)
	avg = testing.AllocsPerRun(100, func() {
		rotate()
		prog.Round(1, lose)
	})
	if avg != 0 {
		t.Errorf("comparison round allocates %.1f times, want 0", avg)
	}
}

// TestLubyRunAllocs pins per-node setup of a Luby run at (near) zero
// allocations: programs and their port masks come from per-run slabs, so a
// run gains at most 1 allocation per 64 nodes added when the network
// doubles from 1024 nodes (one per node would be 1024).
func TestLubyRunAllocs(t *testing.T) {
	runAllocs := func(n int) float64 {
		g := graph.GNPConnected(n, 6.0/float64(n), prng.New(67))
		seed := uint64(0)
		return testing.AllocsPerRun(2, func() {
			seed++
			if _, _, err := Luby(g, randomness.NewFull(seed), nil, LubyConfig{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 1024
	small, large := runAllocs(n), runAllocs(2*n)
	t.Logf("Luby allocations per run: %.0f at %d nodes, %.0f at %d nodes", small, n, large, 2*n)
	if large-small > n/64 {
		t.Errorf("doubling the network from %d nodes adds %.0f allocations per run, want at most %d (1 per 64 nodes)",
			n, large-small, n/64)
	}
}
