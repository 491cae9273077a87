package check

import (
	"os"
	"testing"

	"randlocal/internal/prng"
	"randlocal/internal/sim"
	"randlocal/internal/splitting"
)

// TestMain enables the engine's poisoned-Outbox check for the package's
// whole test run (all four distributed checkers assemble their outboxes in
// the NodeCtx.Outbox scratch).
func TestMain(m *testing.M) {
	sim.SetDebugOutboxCheck(true)
	os.Exit(m.Run())
}

// TestCheckerRoundsAllocNothing measures the broadcast round of each 1-round
// checker and the steady-state flood round of the radius-d decomposition
// checker under testing.AllocsPerRun: all outboxes come from the engine
// scratch and all payloads from the per-round arena, so each measured round
// must allocate zero.
func TestCheckerRoundsAllocNothing(t *testing.T) {
	const deg = 5
	empty := make([]sim.Message, deg)

	t.Run("mis", func(t *testing.T) {
		ctx, rotate := sim.NewBenchCtx(deg, 4, 64, nil)
		c := &misChecker{inMIS: true}
		c.Init(ctx)
		if avg := testing.AllocsPerRun(100, func() {
			rotate()
			c.Round(0, empty)
		}); avg != 0 {
			t.Errorf("MIS checker broadcast allocates %.1f times, want 0", avg)
		}
	})

	t.Run("mis-packed", func(t *testing.T) {
		// The checker declares PayloadBits() = 1, so the engines run it over
		// packed planes: both its rounds — bit broadcast and word scan — must
		// stay at zero allocations in that mode too.
		ctx, setIn, reset := sim.NewPackedBenchCtx(70, 4, 64, nil)
		c := &misChecker{inMIS: true}
		c.Init(ctx)
		if avg := testing.AllocsPerRun(100, func() {
			reset()
			c.Round(0, nil)
		}); avg != 0 {
			t.Errorf("packed MIS checker broadcast allocates %.1f times, want 0", avg)
		}
		if avg := testing.AllocsPerRun(100, func() {
			reset()
			setIn(66, 1) // a member neighbor past the first inbox word
			c.Round(1, nil)
			c.answer = true
		}); avg != 0 {
			t.Errorf("packed MIS checker scan allocates %.1f times, want 0", avg)
		}
	})

	t.Run("coloring", func(t *testing.T) {
		ctx, rotate := sim.NewBenchCtx(deg, 4, 64, nil)
		c := &coloringChecker{color: 2, maxColors: 8}
		c.Init(ctx)
		if avg := testing.AllocsPerRun(100, func() {
			rotate()
			c.Round(0, empty)
		}); avg != 0 {
			t.Errorf("coloring checker broadcast allocates %.1f times, want 0", avg)
		}
	})

	t.Run("splitting", func(t *testing.T) {
		ctx, rotate := sim.NewBenchCtx(deg, 4, 64, nil)
		c := &splitChecker{color: 1} // V-side announcer
		c.Init(ctx)
		if avg := testing.AllocsPerRun(100, func() {
			rotate()
			c.Round(0, empty)
		}); avg != 0 {
			t.Errorf("splitting checker broadcast allocates %.1f times, want 0", avg)
		}
	})

	t.Run("splitting-accepts", func(t *testing.T) {
		// The migrated splitting checker still accepts a valid two-coloring
		// on the bipartite communication graph (run under the poisoned-
		// Outbox check via TestMain).
		inst := splitting.RandomInstance(40, 200, 30, prng.New(4))
		colors := make([]int, 200)
		for i := range colors {
			colors[i] = i % 2
		}
		ok, err := SplittingDistributedOpts(inst.AdjU, 200, colors, Options{})
		if err != nil || !ok {
			t.Errorf("splitting checker: ok=%v err=%v, want acceptance", ok, err)
		}
	})

	t.Run("decomposition", func(t *testing.T) {
		ctx, rotate := sim.NewBenchCtx(deg, 4, 64, nil)
		c := &decompChecker{cluster: 3, color: 1, rounds: 1 << 20}
		c.Init(ctx)
		inbox := make([]sim.Message, deg)
		inbox[0] = sim.Uints(3, 1, 2) // same cluster: min-flood update
		inbox[1] = sim.Uints(9, 0, 1) // foreign cluster, different color
		if avg := testing.AllocsPerRun(100, func() {
			rotate()
			c.Round(1, inbox)
		}); avg != 0 {
			t.Errorf("decomposition checker flood round allocates %.1f times, want 0", avg)
		}
	})
}
