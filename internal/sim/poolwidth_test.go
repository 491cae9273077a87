package sim

import (
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// setProcs overrides the runtime concurrency limit the pool-width machinery
// sees (numProcs) for one test, restoring the suite-wide TestMain value on
// cleanup.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := numProcs
	numProcs = func() int { return n }
	t.Cleanup(func() { numProcs = old })
}

// TestPoolModel unit-tests the adaptive pool-width ledger's arithmetic with
// synthetic measurements — no clocks, no engine.
func TestPoolModel(t *testing.T) {
	setProcs(t, 16) // the processor clamp has its own checks below
	m := newPoolModel(4)
	// Under two samples the ledger refuses to move off the configured width.
	if got := m.desiredWidth(10); got != 4 {
		t.Fatalf("desiredWidth before samples = %d, want 4", got)
	}
	// Profitable rounds: 4000ns of compute over 40 nodes (100ns/node), only
	// 400ns of coordination (100ns per worker). 10 live nodes keep
	// 10*100/(2*100) = 5 -> clamped to 4 workers busy.
	for i := 0; i < 3; i++ {
		m.charge(1400, 1000, 4000, 40)
	}
	if m.perNodeNS != 100 {
		t.Fatalf("perNodeNS = %d, want 100", m.perNodeNS)
	}
	if m.overheadNS != 100 {
		t.Fatalf("overheadNS = %d, want 100", m.overheadNS)
	}
	if got := m.desiredWidth(40); got != 4 {
		t.Errorf("desiredWidth(40) = %d, want 4 (profitable)", got)
	}
	// A shattered worklist of 3 nodes only funds 3*100/(2*100) = 1 worker —
	// but the resize waits out the widthHold hysteresis.
	if got := m.desiredWidth(3); got != 4 {
		t.Errorf("first disagreeing round resized immediately: %d", got)
	}
	if got := m.desiredWidth(3); got != 1 {
		t.Errorf("desiredWidth(3) after hold = %d, want 1", got)
	}
	m.resized(1)
	if m.width != 1 || m.disagree != 0 {
		t.Fatalf("post-resize model = %+v", m)
	}
	// Width-1 rounds must not decay the remembered multi-worker overhead:
	// near-zero coordination at width 1 would otherwise talk the ledger
	// into re-growing the pool it just parked.
	m.charge(300, 300, 300, 3)
	if m.overheadNS != 100 {
		t.Errorf("width-1 round charged overhead: %d", m.overheadNS)
	}
	// A recovered worklist re-grows the pool (after the hold).
	if got := m.desiredWidth(100); got != 1 {
		t.Errorf("first re-grow request resized immediately: %d", got)
	}
	if got := m.desiredWidth(100); got != 4 {
		t.Errorf("desiredWidth(100) = %d, want 4 (re-grown, capped)", got)
	}
	// Raw clamps: never below 1, never above maxWorkers or liveN.
	if got := m.rawDesired(0); got != 1 {
		t.Errorf("rawDesired(0) = %d", got)
	}
	// A model whose per-node compute dwarfs the coordination overhead wants
	// every worker it can get — but a shard needs a live node, so liveN caps
	// the request below maxWorkers.
	m2 := newPoolModel(8)
	m2.charge(1000, 900, 90_000, 9)
	m2.charge(1000, 900, 90_000, 9)
	if got := m2.rawDesired(2); got != 2 {
		t.Errorf("rawDesired(2) = %d, want 2 (liveN cap)", got)
	}
	if got := m2.rawDesired(1000); got != 8 {
		t.Errorf("rawDesired(1000) = %d, want 8 (maxWorkers cap)", got)
	}
	// The processor clamp: per-worker compute times are goroutine wall
	// clocks, so time-sliced workers look perfectly overlapped to the
	// ledger — only the processor count can say the hardware cannot run
	// them concurrently. A model created under a 2-CPU runtime never asks
	// for more than 2, however profitable the arithmetic looks.
	setProcs(t, 2)
	m3 := newPoolModel(8)
	m3.charge(1000, 900, 90_000, 9)
	m3.charge(1000, 900, 90_000, 9)
	if got := m3.rawDesired(1000); got != 2 {
		t.Errorf("rawDesired(1000) = %d, want 2 (processor cap)", got)
	}
}

// TestTelemetryPoolWidth pins the pool-width telemetry: PoolWidthPerRound
// spans every round with widths in [1, Workers], the first round runs the
// full starting width, and the per-lane Staged counts account for every
// delivered message.
func TestTelemetryPoolWidth(t *testing.T) {
	rng := prng.New(911)
	g := graph.PowerLaw(400, 3, rng)
	n := g.N()
	ids := RandomIDs(n, 3, NewSimulationKey(uint64(n)*5))
	const workers = 4
	withTelemetry(t, func() {
		cfg := Config{Graph: g, IDs: ids, MaxMessageBits: CongestBits(n)}
		res, err := RunParallel(cfg, func(int) NodeProgram[uint64] { return &staggeredHalt{} }, workers)
		if err != nil {
			t.Fatal(err)
		}
		tel := res.Telemetry
		if len(tel.PoolWidthPerRound) != res.Rounds {
			t.Fatalf("%d width samples for %d rounds", len(tel.PoolWidthPerRound), res.Rounds)
		}
		for r, w := range tel.PoolWidthPerRound {
			if w < 1 || w > workers {
				t.Fatalf("round %d pool width %d outside [1, %d]", r, w, workers)
			}
		}
		if tel.PoolWidthPerRound[0] != workers {
			t.Errorf("round 0 pool width = %d, want %d", tel.PoolWidthPerRound[0], workers)
		}
		// Every delivered message was staged by exactly one lane; the
		// adversary's own injections (none here) are the only messages the
		// lanes would not see.
		var total int64
		for _, rs := range tel.Rounds {
			for _, c := range rs.Staged {
				total += int64(c)
			}
		}
		if total != res.Messages {
			t.Errorf("staged total %d != messages %d", total, res.Messages)
		}
	})
}

// TestRunParallelProgressHook asserts the Progress feed under the parallel
// engine with adaptive re-sharding and pool-width changes active: the hook
// must fire exactly once per round, in order, with the cumulative counters
// the final Result confirms. CI runs this under -race, which would catch the
// hook racing the worker pool.
func TestRunParallelProgressHook(t *testing.T) {
	rng := prng.New(912)
	g := graph.PowerLaw(500, 3, rng)
	n := g.N()
	ids := RandomIDs(n, 3, NewSimulationKey(uint64(n)*9+1))
	var updates []Progress
	cfg := Config{
		Graph: g, IDs: ids, MaxMessageBits: CongestBits(n),
		Reshard:  ReshardAdaptive,
		Progress: func(p Progress) { updates = append(updates, p) },
	}
	res, err := RunParallel(cfg, func(int) NodeProgram[uint64] { return &staggeredHalt{} }, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != res.Rounds {
		t.Fatalf("%d progress updates for %d rounds", len(updates), res.Rounds)
	}
	running := n
	var lastMsgs int64
	for i, p := range updates {
		if p.Round != i+1 {
			t.Fatalf("update %d reports round %d, want %d (each round exactly once, in order)", i, p.Round, i+1)
		}
		if p.Active != res.ActivePerRound[i] {
			t.Errorf("update %d active = %d, want %d", i, p.Active, res.ActivePerRound[i])
		}
		if p.Running > running {
			t.Errorf("update %d running %d grew from %d", i, p.Running, running)
		}
		running = p.Running
		if p.Messages < lastMsgs {
			t.Errorf("update %d messages %d shrank from %d", i, p.Messages, lastMsgs)
		}
		lastMsgs = p.Messages
	}
	final := updates[len(updates)-1]
	if final.Round != res.Rounds || final.Running != 0 || final.Messages != res.Messages {
		t.Errorf("final update %+v disagrees with Result (rounds=%d messages=%d)", final, res.Rounds, res.Messages)
	}
}

// TestAdaptiveWidthProcessorClamp pins the topology clamp: under the
// adaptive policy a pool wider than the runtime's concurrency limit starts
// (and stays) clamped to it — time-sliced workers pay coordination for zero
// overlap — while the explicit policies run the configured width untouched.
// Results are byte-identical either way.
func TestAdaptiveWidthProcessorClamp(t *testing.T) {
	rng := prng.New(913)
	g := graph.PowerLaw(400, 3, rng)
	n := g.N()
	ids := RandomIDs(n, 3, NewSimulationKey(uint64(n)*7+5))
	factory := func(int) NodeProgram[uint64] { return &staggeredHalt{} }
	cfg := Config{Graph: g, IDs: ids, MaxMessageBits: CongestBits(n)}
	want, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	withTelemetry(t, func() {
		// A single-processor runtime collapses the adaptive pool to the
		// sequential schedule outright — one telemetry lane, no pool,
		// exactly like a configured one-worker pool.
		setProcs(t, 1)
		acfg := cfg
		acfg.Reshard = ReshardAdaptive
		res, err := RunParallel(acfg, factory, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, "procs=1", want, res)
		if res.Telemetry.Workers != 1 {
			t.Fatalf("procs=1: telemetry reports %d lanes, want the sequential 1", res.Telemetry.Workers)
		}
		// Two processors clamp a four-wide request to a two-wide pool.
		setProcs(t, 2)
		res, err = RunParallel(acfg, factory, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, "procs=2", want, res)
		tel := res.Telemetry
		if tel.Workers != 4 {
			t.Fatalf("procs=2: telemetry reports %d workers, want the configured 4", tel.Workers)
		}
		if len(tel.PoolWidthPerRound) == 0 || tel.PoolWidthPerRound[0] != 2 {
			t.Errorf("procs=2: pool widths %v, want a starting width of 2", tel.PoolWidthPerRound)
		}
		for r, w := range tel.PoolWidthPerRound {
			if w > 2 {
				t.Fatalf("procs=2: round %d ran width %d beyond the processor limit", r, w)
			}
		}
		// ReshardOff is a contract, not a suggestion: the configured width
		// runs even on hardware that will time-slice it.
		setProcs(t, 1)
		ocfg := cfg
		ocfg.Reshard = ReshardOff
		res, err = RunParallel(ocfg, factory, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, "off/procs=1", want, res)
		for r, w := range res.Telemetry.PoolWidthPerRound {
			if w != 4 {
				t.Fatalf("off/procs=1: round %d width %d, want the configured 4", r, w)
			}
		}
	})
}
