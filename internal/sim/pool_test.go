package sim

import (
	"fmt"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// TestEnginePoolWarmColdEquivalence is the correctness proof of the engine
// pool: on one worker and on eight, in both plane representations, a run
// drawing its buffers from a warm slab — one a previous run of the same
// shape, at either width, already dirtied — must produce a Result
// byte-identical to the cold (unpooled) run. The pooled run executes twice
// so the second pass really reuses a parked slab rather than building a
// fresh one. FuzzEngines covers warm runs at one to three workers.
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
		rounds := graph.Diameter(tg.g) + 2
		factory := func(int) NodeProgram[uint64] { return &bitGossip{rounds: rounds} }
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
			for _, unpack := range []bool{false, true} {
				cfg := base
				cfg.Unpacked = unpack
				check(t, fmt.Sprintf("parallel/workers=8/unpacked=%v", unpack), cfg,
					func(c Config) (*Result[uint64], error) { return RunParallel(c, factory, 8) })
			}
			if pool.idle() == 0 {
				t.Error("pool retained no slabs after pooled runs")
			}
		})
	}
}

// TestEnginePoolFaultedEquivalence extends the warm-vs-cold proof to faulted
// executions: cold and warm runs alike, on one worker and on eight sharing
// one pool, must reproduce the reference engine's Result and injected-event
// record, so a dirty slab can never shift a fault schedule.
func TestEnginePoolFaultedEquivalence(t *testing.T) {
	rng := prng.New(919)
	g := graph.GNPConnected(120, 0.05, rng)
	n := g.N()
	key := NewSimulationKey(uint64(n)*37 + 13)
	ids := RandomIDs(n, n, key)
	rounds := graph.Diameter(g) + 2
	factory := func(int) NodeProgram[uint64] { return &bitGossip{rounds: rounds} }
	adv := mustAdversary(t, key, AdversaryConfig{
		DropProb: 0.05, DelayProb: 0.05, DelayMax: 2,
		CrashPerRound: 1, ChurnPerRound: 2, HealPerRound: 1, StallPerRound: 2,
	})
	cfg := Config{Graph: g, IDs: ids, MaxMessageBits: CongestBits(n), Adversary: adv, Source: key.FullSource()}
	want, err := runReference(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEnginePool()
	for _, workers := range []int{1, 8} {
		for pass := 0; pass <= 2; pass++ {
			c := cfg
			c.Source = key.FullSource()
			if pass > 0 {
				c.Pool = pool
			}
			got, err := RunParallel(c, factory, workers)
			if err != nil {
				t.Fatalf("workers=%d pass %d: %v", workers, pass, err)
			}
			assertMatchesReference(t, fmt.Sprintf("workers=%d/pooled-pass-%d", workers, pass), want, got)
		}
	}
}

// TestEnginePoolShapeMismatch pins the pool's keying discipline: runs of
// different graph shapes must never share a slab — a stale plane sized for
// another graph would corrupt delivery — while two same-shape graphs with
// different structure, or runs of different worker counts, may share one,
// because everything content-like is rewritten per run.
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
	// Same shape at another worker count: one engine, one key — the
	// two-worker run reuses the ring slab rather than warming a third.
	if _, err := RunParallel(Config{Graph: ring, Pool: pool}, floodFactory(4), 2); err != nil {
		t.Fatal(err)
	}
	if got := pool.idle(); got != 2 {
		t.Fatalf("after two-worker run: %d idle slabs, want 2", got)
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
	key := slabKey{n: 16, h: 32}
	// Hold more slabs live than the cap, then release them all.
	var slabs []*engineSlab
	for i := 0; i < pool.perKey+3; i++ {
		slabs = append(slabs, pool.acquire(key.n, key.h))
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
// the program table, the Result, and on a two-worker pool its goroutines and
// shard cut — independent of n and m, on one worker and on two. The probe
// program set lives in a preallocated slab itself, so what the pin measures
// is the engine, not the caller.
func TestEnginePoolSteadyStateAllocs(t *testing.T) {
	was := TelemetryEnabled()
	SetTelemetry(false)
	defer SetTelemetry(was)
	// maxWarm is the per-run constant: engineState, progs slice, outputs
	// slice, the Result and its ActivePerRound copy — plus, on two workers,
	// the goroutines, channels and shard cut. coldRatio is how many times
	// more a cold run must allocate.
	engines := []struct {
		name      string
		run       func(Config, func(int) NodeProgram[uint64]) (*Result[uint64], error)
		maxWarm   float64
		coldRatio float64
	}{
		{"sequential", Run[uint64], 16, 4},
		{"parallel2", func(c Config, f func(int) NodeProgram[uint64]) (*Result[uint64], error) {
			return RunParallel(c, f, 2)
		}, 24, 2},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			warm := map[int]float64{}
			for _, n := range []int{512, 1 << 14} {
				g := graph.Ring(n)
				probes := make([]modeProbe, n)
				factory := func(v int) NodeProgram[uint64] {
					probes[v] = modeProbe{rounds: 4, send: v%3 == 0}
					return &probes[v]
				}
				cfg := Config{Graph: g, Pool: NewEnginePool()}
				run := func() {
					if _, err := eng.run(cfg, factory); err != nil {
						t.Fatal(err)
					}
				}
				run() // warm the slab
				allocs := testing.AllocsPerRun(20, run)
				if allocs > eng.maxWarm {
					t.Errorf("n=%d: steady-state pooled run: %.1f allocs/run, want <= %.0f", n, allocs, eng.maxWarm)
				}
				warm[n] = allocs
				cold := testing.AllocsPerRun(5, func() {
					if _, err := eng.run(Config{Graph: g}, factory); err != nil {
						t.Fatal(err)
					}
				})
				if cold < eng.coldRatio*allocs {
					t.Errorf("n=%d: cold run allocates %.1f vs warm %.1f — pool not actually saving allocations", n, cold, allocs)
				}
			}
			if warm[1<<14] > warm[512]+2 {
				t.Errorf("warm allocations grow with n: %.1f at n=512, %.1f at n=%d", warm[512], warm[1<<14], 1<<14)
			}
		})
	}
}

// constFlood broadcasts one shared constant payload every round until a
// fixed round, so its rounds allocate nothing and a run's allocation count
// is the engine's alone.
type constFlood struct {
	rounds int
	ctx    *NodeCtx
}

func (c *constFlood) Init(ctx *NodeCtx) { c.ctx = ctx }

func (c *constFlood) Round(r int, _ []Message) ([]Message, bool) {
	if r >= c.rounds {
		return nil, true
	}
	return c.ctx.Broadcast(bitWire[1]), false
}

func (c *constFlood) Output() uint64 { return 0 }

// TestColdRunAllocsFlat pins that a cold (unpooled) one-worker run sizes its
// buffers once: every round of an all-active flood is dense, and the
// staging lane is sized up front to the half-edge count, so no per-message
// list grows by append and the run's allocation count does not depend on n.
func TestColdRunAllocsFlat(t *testing.T) {
	was := TelemetryEnabled()
	SetTelemetry(false)
	defer SetTelemetry(was)
	allocs := map[int]float64{}
	for _, n := range []int{1 << 10, 1 << 14} {
		g := graph.GNPConnected(n, 6.0/float64(n), prng.New(uint64(n)))
		probes := make([]constFlood, n)
		factory := func(v int) NodeProgram[uint64] {
			probes[v] = constFlood{rounds: 6}
			return &probes[v]
		}
		allocs[n] = testing.AllocsPerRun(5, func() {
			if _, err := Run(Config{Graph: g}, factory); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d := allocs[1<<14] - allocs[1<<10]; d > 2 || d < -2 {
		t.Errorf("cold one-worker flood: %.1f allocs at n=2^10, %.1f at n=2^14 — buffers grow with the run", allocs[1<<10], allocs[1<<14])
	}
}

// BenchmarkPooledRun measures the pool's win on the per-run setup cost: the
// same small-graph workload cold (every run allocates its planes) and warm
// (every run reuses one slab), on one worker and on two. Small
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
