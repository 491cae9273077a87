package decomp

import (
	"fmt"
	"os"
	"testing"
	"unsafe"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// TestMain enables the engine's poisoned-Outbox check for this package's
// whole test run, so every decomposition program that assembles its outbox
// in the NodeCtx.Outbox scratch is verified to set or nil every port.
func TestMain(m *testing.M) {
	sim.SetDebugOutboxCheck(true)
	os.Exit(m.Run())
}

// TestENSteadyStateRoundAllocsNothing drives one Elkin–Neiman node through
// its steady-state flood rounds (merge the top-2 candidates heard, broadcast
// the merged list) with testing.AllocsPerRun: the outbox comes from the
// engine scratch, the payload is program-owned (the node re-sends or
// re-encodes one of its two payload halves, sized in Init) and the decode is
// inline, so the measured rounds must allocate zero. The second round sees
// the same payloads again and takes the skip path.
func TestENSteadyStateRoundAllocsNothing(t *testing.T) {
	const deg = 6
	ctx, rotate := sim.NewBenchCtx(deg, 42, 1024, nil)
	prog := &enProgram{s: mustENSchedule(t, ENConfig{Radius: func(v, phase int) int { return 3 }}, 1024)}
	prog.Init(ctx)
	if out, _ := prog.Round(0, make([]sim.Message, deg)); len(out) != deg {
		t.Fatal("round 0 did not broadcast")
	}
	// Steady-state inbox: two-candidate floods from every neighbor, built
	// outside the measured loop.
	inbox := make([]sim.Message, deg)
	for p := range inbox {
		inbox[p] = sim.Uints(2, uint64(100+p), 4, uint64(200+p), 2)
	}
	avg := testing.AllocsPerRun(100, func() {
		rotate()
		prog.Round(1, inbox)
		rotate()
		prog.Round(2, inbox)
	})
	if avg != 0 {
		t.Errorf("EN steady-state rounds allocate %.1f times, want 0", avg)
	}
}

// TestMPXGoldenAccounting pins the MPX program's engine accounting to the
// numbers captured from the heap-allocating (pre-migration) implementation
// at commit 128a373 with this exact graph and seed, on every scheduler: the
// zero-alloc rewrite must not change a single message or bit. (The facade's
// golden suite covers the other migrated programs; MPX's public wrapper
// hides the sim.Result, so its golden lives here.)
func TestMPXGoldenAccounting(t *testing.T) {
	g := graph.GNPConnected(200, 4.0/200, prng.New(1))
	cfg := sim.Config{Graph: g, MaxMessageBits: sim.CongestBits(g.N())}
	factory := func(int) sim.NodeProgram[int] { return &mpxProgram{} }
	run := func() (*sim.Result[int], error) {
		cfg.Source = randomness.NewFull(3)
		return sim.Run(cfg, factory)
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Rounds != 22 || want.Messages != 16590 || want.BitsTotal != 271144 || want.MaxMessageBits != 24 {
		t.Errorf("MPX accounting (rounds=%d msgs=%d bits=%d maxbits=%d), want (22, 16590, 271144, 24)",
			want.Rounds, want.Messages, want.BitsTotal, want.MaxMessageBits)
	}
	for _, workers := range []int{2, 5} {
		cfg.Source = randomness.NewFull(3)
		got, err := sim.RunParallel(cfg, factory, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Messages != want.Messages || got.BitsTotal != want.BitsTotal || got.Rounds != want.Rounds {
			t.Errorf("%s MPX accounting differs: (%d,%d,%d) vs (%d,%d,%d)",
				fmt.Sprintf("parallel/workers=%d", workers),
				got.Rounds, got.Messages, got.BitsTotal, want.Rounds, want.Messages, want.BitsTotal)
		}
	}
}

// TestMPXSteadyStateRoundAllocsNothing does the same for the MPX random-
// shift flood round.
func TestMPXSteadyStateRoundAllocsNothing(t *testing.T) {
	const deg = 5
	ctx, rotate := sim.NewBenchCtx(deg, 7, 512, nil)
	prog := &mpxProgram{}
	prog.Init(ctx)
	prog.best = enEntry{id: 7, val: 3} // what round 0's private draw would set
	inbox := make([]sim.Message, deg)
	for p := range inbox {
		inbox[p] = sim.Uints(uint64(50+p), 5)
	}
	avg := testing.AllocsPerRun(100, func() {
		rotate()
		prog.Round(1, inbox)
	})
	if avg != 0 {
		t.Errorf("MPX steady-state round allocates %.1f times, want 0", avg)
	}
}

// TestENProgramLayout pins the program struct at two cache lines, which the
// per-run slab gives every node.
func TestENProgramLayout(t *testing.T) {
	if size := unsafe.Sizeof(enProgram{}); size != 128 {
		t.Errorf("enProgram is %d bytes, want 128", size)
	}
}

// TestElkinNeimanRunAllocs pins per-node setup of an EN run at (near) zero
// allocations: programs, payload buffers and port identities come from
// per-run slabs and streams from the source's slab, so a run gains at most
// 1 allocation per 64 nodes added when the network doubles from 1024 nodes
// (one per node would be 1024).
func TestElkinNeimanRunAllocs(t *testing.T) {
	runAllocs := func(n int) float64 {
		g := graph.GNPConnected(n, 6.0/float64(n), prng.New(67))
		seed := uint64(0)
		return testing.AllocsPerRun(1, func() {
			seed++
			if _, _, err := ElkinNeiman(g, randomness.NewFull(seed), nil, ENConfig{RadiusCap: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 1024
	small, large := runAllocs(n), runAllocs(2*n)
	t.Logf("EN allocations per run: %.0f at %d nodes, %.0f at %d nodes", small, n, large, 2*n)
	if large-small > n/64 {
		t.Errorf("doubling the network from %d nodes adds %.0f allocations per run, want at most %d (1 per 64 nodes)",
			n, large-small, n/64)
	}
}
