package sim

import (
	"fmt"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// TestEnginePoolWarmColdEquivalence is the correctness proof of the engine
// pool: on every scheduler, worker count and plane representation, a run
// drawing its buffers from a warm slab — one a previous run of the same shape
// already dirtied — must produce a Result byte-identical to the cold
// (unpooled) run. The pooled run executes twice so the second pass really
// reuses a parked slab rather than building a fresh one.
func TestEnginePoolWarmColdEquivalence(t *testing.T) {
	defer SetTelemetry(TelemetryEnabled())
	SetTelemetry(true)
	rng := prng.New(8081)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPConnected(130, 0.04, rng)},
		{"powerlaw", graph.PowerLaw(140, 3, rng)},
		{"ring-odd", graph.Ring(67)},
	}
	for _, tg := range graphs {
		n := tg.g.N()
		key := NewSimulationKey(uint64(n)*31 + 11)
		ids := RandomIDs(n, n, key)
		factory := func(int) NodeProgram[uint64] { return &bitGossip{rounds: graph.Diameter(tg.g) + 2} }
		t.Run(tg.name, func(t *testing.T) {
			pool := NewEnginePool()
			check := func(t *testing.T, label string, cfg Config, run func(Config) (*Result[uint64], error)) {
				t.Helper()
				cfg.Source = key.FullSource()
				want, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 1; pass <= 2; pass++ {
					warm := cfg
					warm.Pool = pool
					warm.Source = key.FullSource()
					got, err := run(warm)
					if err != nil {
						t.Fatalf("%s pooled pass %d: %v", label, pass, err)
					}
					assertResultsEqual(t, fmt.Sprintf("%s/pooled-pass-%d", label, pass), want, got)
				}
			}
			base := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n)}
			for _, unpack := range []bool{false, true} {
				cfg := base
				cfg.Unpacked = unpack
				check(t, fmt.Sprintf("sequential/unpacked=%v", unpack), cfg,
					func(c Config) (*Result[uint64], error) { return Run(c, factory) })
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for _, unpack := range []bool{false, true} {
					cfg := base
					cfg.Unpacked = unpack
					label := fmt.Sprintf("parallel/workers=%d/unpacked=%v", workers, unpack)
					check(t, label, cfg,
						func(c Config) (*Result[uint64], error) { return RunParallel(c, factory, workers) })
				}
			}
			if pool.idle() == 0 {
				t.Error("pool retained no slabs after pooled runs")
			}
		})
	}
}

// TestEnginePoolFaultedEquivalence extends the warm-vs-cold proof to faulted
// executions: the adversary's injected-event record — part of the run's
// reproducibility contract — must also match exactly, so a dirty slab can
// never shift a fault schedule.
func TestEnginePoolFaultedEquivalence(t *testing.T) {
	rng := prng.New(919)
	g := graph.GNPConnected(120, 0.05, rng)
	n := g.N()
	key := NewSimulationKey(uint64(n)*37 + 13)
	ids := RandomIDs(n, n, key)
	factory := func(int) NodeProgram[uint64] { return &bitGossip{rounds: graph.Diameter(g) + 2} }
	adv := mustAdversary(t, key, AdversaryConfig{
		DropProb: 0.05, DelayProb: 0.05, DelayMax: 2,
		CrashPerRound: 1, ChurnPerRound: 2, HealPerRound: 1, StallPerRound: 2,
	})
	base := Config{Graph: g, IDs: ids, MaxMessageBits: CongestBits(n), Adversary: adv}
	pool := NewEnginePool()
	check := func(label string, cfg Config, run func(Config) (*Result[uint64], error)) {
		t.Helper()
		cfg.Source = key.FullSource()
		want, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			warm := cfg
			warm.Pool = pool
			warm.Source = key.FullSource()
			got, err := run(warm)
			if err != nil {
				t.Fatalf("%s pooled pass %d: %v", label, pass, err)
			}
			plabel := fmt.Sprintf("%s/pooled-pass-%d", label, pass)
			assertResultsEqual(t, plabel, want, got)
			assertInjectedEqual(t, plabel, want.Telemetry, got.Telemetry)
		}
	}
	check("sequential", base, func(c Config) (*Result[uint64], error) { return Run(c, factory) })
	for _, workers := range []int{2, 3, 8} {
		check(fmt.Sprintf("parallel/workers=%d", workers), base,
			func(c Config) (*Result[uint64], error) { return RunParallel(c, factory, workers) })
	}
}

// TestEnginePoolShapeMismatch pins the pool's keying discipline: runs of
// different graph shapes (or schedulers) must never share a slab — a stale
// plane sized for another graph would corrupt delivery — and two same-shape
// graphs with different structure may share one, because everything
// content-like is rewritten per run.
func TestEnginePoolShapeMismatch(t *testing.T) {
	pool := NewEnginePool()
	ring := graph.Ring(40) // 40 nodes, 80 half-edges
	path := graph.Path(40) // 40 nodes, 78 half-edges: same n, different h
	runOn := func(g *graph.Graph) *Result[uint64] {
		t.Helper()
		res, err := Run(Config{Graph: g, Pool: pool}, floodFactory(4))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runOn(ring)
	if got := pool.idle(); got != 1 {
		t.Fatalf("after first run: %d idle slabs, want 1", got)
	}
	// Different half-edge count: a second key, not a reuse of the ring slab.
	runOn(path)
	if got := pool.idle(); got != 2 {
		t.Fatalf("after mismatched-shape run: %d idle slabs, want 2", got)
	}
	// Same shape, same key: reuse, no third slab.
	runOn(ring)
	if got := pool.idle(); got != 2 {
		t.Fatalf("after same-shape rerun: %d idle slabs, want 2", got)
	}
	// Same shape on another scheduler: scheduler is part of the key.
	if _, err := RunParallel(Config{Graph: ring, Pool: pool}, floodFactory(4), 2); err != nil {
		t.Fatal(err)
	}
	if got := pool.idle(); got != 3 {
		t.Fatalf("after other-scheduler run: %d idle slabs, want 3", got)
	}

	// Equal shape, different run: a longer program on the slab the short
	// floods dirtied must still match its cold run.
	want, err := Run(Config{Graph: ring}, floodFactory(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{Graph: ring, Pool: pool}, floodFactory(7))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "same-shape reuse", want, got)
}

// TestEnginePoolPerKeyCap pins the retention bound: releases beyond the
// per-key cap drop the slab for the GC instead of growing the pool without
// limit.
func TestEnginePoolPerKeyCap(t *testing.T) {
	pool := NewEnginePool()
	g := graph.Ring(16)
	key := slabKey{n: 16, h: 32, sched: Sequential}
	// Hold more slabs live than the cap, then release them all.
	var slabs []*engineSlab
	for i := 0; i < pool.perKey+3; i++ {
		slabs = append(slabs, pool.acquire(key.n, key.h, key.sched))
	}
	for _, s := range slabs {
		s.scrub()
		pool.park(s)
	}
	if got := pool.idle(); got != pool.perKey {
		t.Fatalf("idle = %d, want the per-key cap %d", got, pool.perKey)
	}
	// And the capped pool still serves correct runs.
	want, err := Run(Config{Graph: g}, floodFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{Graph: g, Pool: pool}, floodFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "capped pool", want, got)
}

// TestDefaultPool pins the package-default plumbing: a Config that never
// mentions pools draws from SetDefaultPool's pool, an explicit Config.Pool
// wins over it, and nil restores the historical allocate-fresh behavior.
func TestDefaultPool(t *testing.T) {
	defer SetDefaultPool(nil)
	g := graph.Ring(24)
	want, err := Run(Config{Graph: g}, floodFactory(4))
	if err != nil {
		t.Fatal(err)
	}

	shared := NewEnginePool()
	SetDefaultPool(shared)
	got, err := Run(Config{Graph: g}, floodFactory(4))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "default pool", want, got)
	if shared.idle() != 1 {
		t.Fatalf("default pool retained %d slabs, want 1", shared.idle())
	}

	own := NewEnginePool()
	if _, err := Run(Config{Graph: g, Pool: own}, floodFactory(4)); err != nil {
		t.Fatal(err)
	}
	if own.idle() != 1 || shared.idle() != 1 {
		t.Fatalf("explicit pool did not win: own=%d shared=%d", own.idle(), shared.idle())
	}

	SetDefaultPool(nil)
	if _, err := Run(Config{Graph: g}, floodFactory(4)); err != nil {
		t.Fatal(err)
	}
	if own.idle() != 1 || shared.idle() != 1 {
		t.Fatalf("nil default still pooled: own=%d shared=%d", own.idle(), shared.idle())
	}
}

// TestEnginePoolSteadyStateAllocs is the allocation pin of the pool: once a
// slab is warm, a whole pooled run allocates O(1) — the engine-state struct,
// the program table and the Result — independent of n and m. The probe
// program set lives in a preallocated slab itself, so what the pin measures
// is the engine, not the caller.
func TestEnginePoolSteadyStateAllocs(t *testing.T) {
	was := TelemetryEnabled()
	SetTelemetry(false)
	defer SetTelemetry(was)
	g := graph.Ring(512)
	n := g.N()
	probes := make([]modeProbe, n)
	factory := func(v int) NodeProgram[uint64] {
		probes[v] = modeProbe{rounds: 4, send: v%3 == 0}
		return &probes[v]
	}
	pool := NewEnginePool()
	cfg := Config{Graph: g, Pool: pool}
	run := func() {
		if _, err := Run(cfg, factory); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the slab
	allocs := testing.AllocsPerRun(20, run)
	// The per-run constant: engineState, progs slice, outputs slice, the
	// Result and its ActivePerRound copy — nothing proportional to the
	// 512-node, 1024-half-edge shape.
	if allocs > 16 {
		t.Errorf("steady-state pooled run: %.1f allocs/run, want <= 16", allocs)
	}
	cold := testing.AllocsPerRun(5, func() {
		if _, err := Run(Config{Graph: g}, factory); err != nil {
			t.Fatal(err)
		}
	})
	if cold < 4*allocs {
		t.Errorf("cold run allocates %.1f vs warm %.1f — pool not actually saving allocations", cold, allocs)
	}
}

// BenchmarkPooledRun measures the pool's win on the per-run setup cost: the
// same small-graph workload cold (every run allocates its planes) and warm
// (every run reuses one slab), on the sequential and parallel engines. Small
// graphs and short programs maximize the relative weight of setup, which is
// exactly the serving-layer profile the pool exists for.
func BenchmarkPooledRun(b *testing.B) {
	rng := prng.New(42)
	g := graph.GNPConnected(4096, 0.002, rng)
	factory := func(int) NodeProgram[uint64] { return &modeProbe{rounds: 4, send: true} }
	bench := func(b *testing.B, cfg Config, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if workers > 0 {
				_, err = RunParallel(cfg, factory, workers)
			} else {
				_, err = Run(cfg, factory)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential/cold", func(b *testing.B) { bench(b, Config{Graph: g}, 0) })
	b.Run("sequential/warm", func(b *testing.B) { bench(b, Config{Graph: g, Pool: NewEnginePool()}, 0) })
	b.Run("parallel2/cold", func(b *testing.B) { bench(b, Config{Graph: g}, 2) })
	b.Run("parallel2/warm", func(b *testing.B) {
		bench(b, Config{Graph: g, Pool: NewEnginePool()}, 2)
	})
}

// TestProgressHook pins the Config.Progress contract on every scheduler: one
// update per round from the coordinating goroutine, with the cumulative
// counters matching the final Result exactly.
func TestProgressHook(t *testing.T) {
	g := graph.Ring(48)
	for _, sched := range []Scheduler{Sequential, Parallel} {
		t.Run(sched.String(), func(t *testing.T) {
			var got []Progress
			cfg := Config{
				Graph:     g,
				Scheduler: sched,
				Workers:   3,
				Progress:  func(p Progress) { got = append(got, p) },
			}
			res, err := Execute(cfg, floodFactory(5))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != res.Rounds {
				t.Fatalf("%d progress updates for %d rounds", len(got), res.Rounds)
			}
			for i, p := range got {
				if p.Round != i+1 {
					t.Errorf("update %d: round %d", i, p.Round)
				}
				if p.Active != res.ActivePerRound[i] {
					t.Errorf("update %d: active %d, want %d", i, p.Active, res.ActivePerRound[i])
				}
			}
			last := got[len(got)-1]
			if last.Running != 0 {
				t.Errorf("final update: %d still running", last.Running)
			}
			if last.Messages != res.Messages {
				t.Errorf("final update: %d messages, want %d", last.Messages, res.Messages)
			}
		})
	}
}

// TestConfigTelemetryForce pins the per-run telemetry lever the serving layer
// uses: Config.Telemetry collects a full record even when the package-wide
// switch is off, without flipping any global state.
func TestConfigTelemetryForce(t *testing.T) {
	was := TelemetryEnabled()
	SetTelemetry(false)
	defer SetTelemetry(was)
	g := graph.Ring(32)
	res, err := Run(Config{Graph: g}, floodFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("telemetry collected with switch off and no per-run force")
	}
	res, err = Run(Config{Graph: g, Telemetry: true}, floodFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("Config.Telemetry did not force collection")
	}
	if len(res.Telemetry.Rounds) != res.Rounds {
		t.Fatalf("forced telemetry recorded %d rounds, want %d", len(res.Telemetry.Rounds), res.Rounds)
	}
}
