package mis

import (
	"runtime"
	"testing"
	"unsafe"

	"randlocal/internal/check"
	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

func TestLubyBitOnFamilies(t *testing.T) {
	rng := prng.New(59)
	families := map[string]*graph.Graph{
		"ring64":   graph.Ring(64),
		"ring-odd": graph.Ring(67),
		"clique32": graph.Complete(32),
		"gnp256":   graph.GNPConnected(256, 4.0/256, rng),
		"tree100":  graph.RandomTree(100, rng),
		"grid10":   graph.Grid(10, 10),
		"star50":   graph.Star(50),
		// Degrees past 64 take the multi-word port-mask path.
		"star130":   graph.Star(130),
		"clique70":  graph.Complete(70),
		"singleton": graph.NewBuilder(1).Graph(),
		"isolated":  graph.NewBuilder(5).Graph(),
		"disjoint":  graph.Disjoint(graph.Ring(8), graph.Complete(4)),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			in, res, err := LubyBit(g, randomness.NewFull(uint64(len(name))), nil, LubyBitConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := check.MIS(g, in); err != nil {
				t.Fatalf("invalid MIS: %v", err)
			}
			// Every wire message is the canonical 1-bit encoding: one byte.
			if g.M() > 0 && res.MaxMessageBits != 8 {
				t.Errorf("max message bits = %d, want 8", res.MaxMessageBits)
			}
		})
	}
}

// TestLubyBitPackedUnpackedEquivalence is the program-level half of the
// representation-independence proof: the same seed must produce a
// byte-identical Result packed and unpacked, on the sequential and parallel
// schedulers alike (the packed_test.go suite proves the engine-level claim
// with its own probe program).
func TestLubyBitPackedUnpackedEquivalence(t *testing.T) {
	rng := prng.New(61)
	for name, g := range map[string]*graph.Graph{
		"gnp200": graph.GNPConnected(200, 5.0/200, rng),
		// Degrees past 64: multi-word port masks and plane windows.
		"star130":  graph.Star(130),
		"clique70": graph.Complete(70),
	} {
		t.Run(name, func(t *testing.T) { lubyBitEquivalent(t, g) })
	}
}

func lubyBitEquivalent(t *testing.T, g *graph.Graph) {
	run := func(unpacked bool, workers int) *sim.Result[LubyOutput] {
		cfg := sim.Config{
			Graph:          g,
			Source:         randomness.NewFull(11),
			MaxMessageBits: sim.CongestBits(g.N()),
			Unpacked:       unpacked,
		}
		factory := func(int) sim.NodeProgram[LubyOutput] {
			return &lubyBitProgram{cfg: &LubyBitConfig{}}
		}
		var res *sim.Result[LubyOutput]
		var err error
		if workers > 0 {
			res, err = sim.RunParallel(cfg, factory, workers)
		} else {
			res, err = sim.Run(cfg, factory)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(true, 0)
	for _, sc := range []struct {
		label    string
		unpacked bool
		workers  int
	}{
		{"sequential/packed", false, 0},
		{"parallel/packed", false, 4},
		{"parallel/unpacked", true, 4},
	} {
		got := run(sc.unpacked, sc.workers)
		if got.Rounds != want.Rounds || got.Messages != want.Messages || got.BitsTotal != want.BitsTotal {
			t.Fatalf("%s: (rounds, messages, bits) = (%d, %d, %d), want (%d, %d, %d)",
				sc.label, got.Rounds, got.Messages, got.BitsTotal, want.Rounds, want.Messages, want.BitsTotal)
		}
		for v := range want.Outputs {
			if got.Outputs[v] != want.Outputs[v] {
				t.Fatalf("%s: node %d output %+v, want %+v", sc.label, v, got.Outputs[v], want.Outputs[v])
			}
		}
	}
}

// TestLubyBitAdversaryEquivalence checks that a faulted LubyBit run is
// representation-independent too: identical Results and injection records
// packed and unpacked. Validity is not asserted — lost announcements can
// break an MIS, which is the adversary layer's point.
func TestLubyBitAdversaryEquivalence(t *testing.T) {
	rng := prng.New(67)
	g := graph.GNPConnected(150, 0.04, rng)
	key := sim.NewSimulationKey(4242)
	run := func(unpacked bool) (*sim.Result[LubyOutput], error) {
		adv, err := sim.NewAdversary(key, sim.AdversaryConfig{DropProb: 0.02, DelayProb: 0.02, DelayMax: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg := LubyBitConfig{Adversary: adv, Unpacked: unpacked}
		_, res, err := LubyBit(g, key.FullSource(), nil, cfg)
		return res, err
	}
	want, errW := run(true)
	got, errG := run(false)
	if (errW == nil) != (errG == nil) {
		t.Fatalf("error mismatch: unpacked %v, packed %v", errW, errG)
	}
	if got.Rounds != want.Rounds || got.Messages != want.Messages || got.BitsTotal != want.BitsTotal {
		t.Fatalf("faulted packed run diverged: (%d, %d, %d) vs (%d, %d, %d)",
			got.Rounds, got.Messages, got.BitsTotal, want.Rounds, want.Messages, want.BitsTotal)
	}
	for v := range want.Outputs {
		if got.Outputs[v] != want.Outputs[v] {
			t.Fatalf("node %d: faulted outputs diverge packed vs unpacked", v)
		}
	}
	wi, gi := want.Telemetry.Injected, got.Telemetry.Injected
	if len(wi) != len(gi) {
		t.Fatalf("injected records diverge: %d vs %d events", len(wi), len(gi))
	}
	for i := range wi {
		if wi[i] != gi[i] {
			t.Fatalf("injected[%d] = %v, want %v", i, gi[i], wi[i])
		}
	}
}

func TestLubyBitDeterministicGivenSeed(t *testing.T) {
	g := graph.Ring(100)
	a, _, err := LubyBit(g, randomness.NewFull(7), nil, LubyBitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := LubyBit(g, randomness.NewFull(7), nil, LubyBitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("LubyBit not deterministic for a fixed seed")
		}
	}
}

// TestLubyBitSteadyStateRoundsAllocNothing pins the zero-alloc claim of the
// packed path at the program level: with the coin injected through the Mark
// hook, every phase position of a packed lubyBitProgram round — mark
// broadcast, conflict scan, OUT scan — must allocate nothing.
func TestLubyBitSteadyStateRoundsAllocNothing(t *testing.T) {
	const deg = 70 // two mask words, so the scans cross a word boundary
	nids := make([]uint64, deg)
	for p := range nids {
		nids[p] = uint64(100 + p)
	}
	ctx, setIn, reset := sim.NewPackedBenchCtx(deg, 42, 1024, nids)
	prog := &lubyBitProgram{cfg: &LubyBitConfig{Mark: func(v, phase int) bool { return phase%2 == 0 }}}
	prog.Init(ctx)

	r := 0
	avg := testing.AllocsPerRun(300, func() {
		reset()
		setIn(3, 1)  // a neighbor's announcement in word 0
		setIn(66, 0) // and a cleared bit past the word boundary
		prog.Round(r, nil)
		prog.decided = false // hold the node in steady state
		prog.inMIS = false
		r++
	})
	if avg != 0 {
		t.Errorf("packed LubyBit round allocates %.1f times, want 0", avg)
	}
}

// TestLubyBitRunAllocs pins per-node setup of a LubyBit run at (near) zero
// allocations: programs come from one slab, streams from the source's slab,
// and the port masks of nodes with degree ≤ 64 live inside the program. The
// engine's own allocations per run (plane and worklist growth, ~60 at these
// sizes) do not grow with n node by node, so the pin is on the allocations a
// run gains when the network doubles from 4096 nodes: at most 1 per 64 of
// the added nodes (one per node would be 4096).
func TestLubyBitRunAllocs(t *testing.T) {
	runAllocs := func(n int) float64 {
		g := graph.GNPConnected(n, 6.0/float64(n), prng.New(67))
		seed := uint64(0)
		return testing.AllocsPerRun(3, func() {
			seed++
			if _, _, err := LubyBit(g, randomness.NewFull(seed), nil, LubyBitConfig{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 4096
	small, large := runAllocs(n), runAllocs(2*n)
	t.Logf("LubyBit allocations per run: %.0f at %d nodes, %.0f at %d nodes", small, n, large, 2*n)
	if large-small > n/64 {
		t.Errorf("doubling the network from %d nodes adds %.0f allocations per run, want at most %d (1 per 64 nodes)",
			n, large-small, n/64)
	}
}

// TestLubyBitProgramLayout pins the program struct at one cache line: the
// slab (NewBitProgramSlab) then gives every node exactly one line of
// program state, which the packed round loop touches once per node-step.
func TestLubyBitProgramLayout(t *testing.T) {
	if size := unsafe.Sizeof(lubyBitProgram{}); size != 64 {
		t.Errorf("lubyBitProgram is %d bytes, want 64", size)
	}
}

// TestLubyBitBytesPerNode pins what a cold one-worker LubyBit run
// allocates per node, graph excluded, on GNPConnected(2^14, 6/n): the
// programs (64 B), the contexts (128 B), the program interface slots
// (16 B), the randomness streams, worklist, outputs, neighbor IDs and
// packed planes. With 104-byte programs and 160-byte contexts the run
// allocated 427 B per node; with 64-byte programs and 128-byte contexts it
// allocates 355 B. The bound sits below 355 + 32, so growing either struct
// back by a cache-line half fails it.
func TestLubyBitBytesPerNode(t *testing.T) {
	n := 1 << 14
	g := graph.GNPConnected(n, 6.0/float64(n), prng.New(7))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := LubyBit(g, randomness.NewFull(3), nil, LubyBitConfig{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("cold LubyBit run: %.1f B per node", perNode)
	if perNode > 380 {
		t.Errorf("cold LubyBit run allocates %.1f B per node, want <= 380", perNode)
	}
}
