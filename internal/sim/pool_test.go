package sim

import (
	"fmt"
	"runtime"
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
			base := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n), Telemetry: true}
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

// TestEnginePoolIdleCap pins the retention bound: a pool keeps at most
// maxIdleSlabs parked slabs across all shapes, evicting the least recently
// parked one, so a host that sees a new graph shape per request holds a
// bounded set of buffers — while a shape parked within the cap is still
// reused rather than rebuilt.
func TestEnginePoolIdleCap(t *testing.T) {
	pool := NewEnginePool()
	key := slabKey{n: 16, h: 32}
	// Hold more same-shape slabs live than the cap, then release them all.
	var slabs []*engineSlab
	for i := 0; i < maxIdleSlabs+3; i++ {
		slabs = append(slabs, pool.acquire(key.n, key.h))
	}
	for _, s := range slabs {
		s.scrub()
		pool.park(s)
	}
	if got := pool.idle(); got != maxIdleSlabs {
		t.Fatalf("same shape: idle = %d, want the cap %d", got, maxIdleSlabs)
	}

	// 100 runs of 100 distinct shapes (paths of 3..102 nodes).
	pool = NewEnginePool()
	paths := make([]*graph.Graph, 100)
	for i := range paths {
		paths[i] = graph.Path(i + 3)
		if _, err := Run(Config{Graph: paths[i], Pool: pool}, floodFactory(2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.idle(); got != maxIdleSlabs {
		t.Fatalf("distinct shapes: idle = %d, want the cap %d", got, maxIdleSlabs)
	}
	// A shape parked inside the cap is a warm hit: the run takes its slab
	// and parks it again, evicting nothing.
	repeat := paths[len(paths)-maxIdleSlabs]
	hit := pool.parked[0]
	if hit.key.n != repeat.N() {
		t.Fatalf("oldest parked slab serves n=%d, want n=%d", hit.key.n, repeat.N())
	}
	want, err := Run(Config{Graph: repeat}, floodFactory(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{Graph: repeat, Pool: pool}, floodFactory(4))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "capped pool", want, got)
	if pool.idle() != maxIdleSlabs || pool.parked[maxIdleSlabs-1] != hit {
		t.Fatal("repeated shape inside the cap was not served by its parked slab")
	}
	// An evicted shape is a miss: its run builds a fresh slab and parking it
	// evicts the now least recently parked one.
	oldest := pool.parked[0]
	if _, err := Run(Config{Graph: paths[0], Pool: pool}, floodFactory(2)); err != nil {
		t.Fatal(err)
	}
	if pool.idle() != maxIdleSlabs || pool.parked[0] == oldest {
		t.Fatal("parking past the cap did not evict the least recently parked slab")
	}
}

// TestEnginePoolSteadyStateAllocs is the allocation pin of the pool: once a
// slab is warm, a whole pooled run allocates O(1) — the engine-state struct,
// the program table, the Result, and on a two-worker pool its goroutines and
// shard cut — independent of n and m, on one worker and on two. The probe
// program set lives in a preallocated slab itself, so what the pin measures
// is the engine, not the caller. It runs two sender sets: every third node
// (dense rounds) and every 64th (sparse rounds, which record their slots).
//
// It also pins how much a cold run's allocation count grows from n=512 to
// n=2^14. The lanes and the slot lists are sized once per run, so none of
// that growth is an append; all of it is the arenas' two round buffers
// doubling from empty as the senders' carves grow with n (five doublings
// each on the dense set, fewer on the sparse one).
func TestEnginePoolSteadyStateAllocs(t *testing.T) {
	// maxWarm is the per-run constant: engineState, progs slice, outputs
	// slice, the Result and its ActivePerRound copy — plus, on two workers,
	// the goroutines, channels and shard cut. Per sender stride, coldRatio is
	// how many times more a cold run must allocate, and coldGrowth bounds the
	// cold count's growth from n=512 to n=2^14.
	engines := []struct {
		name       string
		run        func(Config, func(int) NodeProgram[uint64]) (*Result[uint64], error)
		maxWarm    float64
		coldRatio  map[int]float64
		coldGrowth map[int]float64
	}{
		{"sequential", Run[uint64], 16, map[int]float64{3: 4, 64: 3}, map[int]float64{3: 10, 64: 6}},
		{"parallel2", func(c Config, f func(int) NodeProgram[uint64]) (*Result[uint64], error) {
			return RunParallel(c, f, 2)
		}, 24, map[int]float64{3: 2, 64: 2}, map[int]float64{3: 20, 64: 8}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			for _, stride := range []int{3, 64} {
				warm := map[int]float64{}
				cold := map[int]float64{}
				for _, n := range []int{512, 1 << 14} {
					g := graph.Ring(n)
					probes := make([]modeProbe, n)
					factory := func(v int) NodeProgram[uint64] {
						probes[v] = modeProbe{rounds: 4, send: v%stride == 0}
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
						t.Errorf("stride %d, n=%d: steady-state pooled run: %.1f allocs/run, want <= %.0f", stride, n, allocs, eng.maxWarm)
					}
					warm[n] = allocs
					cold[n] = testing.AllocsPerRun(5, func() {
						if _, err := eng.run(Config{Graph: g}, factory); err != nil {
							t.Fatal(err)
						}
					})
					if cold[n] < eng.coldRatio[stride]*allocs {
						t.Errorf("stride %d, n=%d: cold run allocates %.1f vs warm %.1f — pool not actually saving allocations", stride, n, cold[n], allocs)
					}
				}
				if warm[1<<14] > warm[512]+2 {
					t.Errorf("stride %d: warm allocations grow with n: %.1f at n=512, %.1f at n=%d", stride, warm[512], warm[1<<14], 1<<14)
				}
				if d := cold[1<<14] - cold[512]; d > eng.coldGrowth[stride] {
					t.Errorf("stride %d: cold allocations grow by %.1f from n=512 to n=%d, want <= %.0f", stride, d, 1<<14, eng.coldGrowth[stride])
				}
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

// constBitFlood is constFlood over packed planes: it declares 1-bit
// payloads and broadcasts bit 1 every round.
type constBitFlood struct{ constFlood }

func (c *constBitFlood) PayloadBits() int { return 1 }

func (c *constBitFlood) Round(r int, _ []Message) ([]Message, bool) {
	if r >= c.rounds {
		return nil, true
	}
	return c.ctx.BroadcastBit(1), false
}

// TestEngineBytesPerHalfEdge pins what a cold one-worker run allocates per
// half-edge, graph and programs excluded, on one GNPConnected shape (n=2^14,
// p=16/n). An unpacked run holds two Message planes (24 B each), the
// neighbor IDs (8 B), one uint32 lane entry (4 B), the sparse slot list
// (0.5 B) and per-node state spread over ~16 half-edges: about 73 B. A
// packed run swaps the Message planes for two bit planes: about 25 B. The
// unpacked bound sits below 73 + 28, so a lane entry that carried the
// message again (32 B) fails it.
func TestEngineBytesPerHalfEdge(t *testing.T) {
	n := 1 << 14
	g := graph.GNPConnected(n, 16.0/float64(n), prng.New(7))
	h := float64(2 * g.M())
	measure := func(factory func(int) NodeProgram[uint64]) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(Config{Graph: g}, factory); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / h
	}
	floods := make([]constFlood, n)
	unpacked := measure(func(v int) NodeProgram[uint64] {
		floods[v] = constFlood{rounds: 3}
		return &floods[v]
	})
	bitFloods := make([]constBitFlood, n)
	packed := measure(func(v int) NodeProgram[uint64] {
		bitFloods[v] = constBitFlood{constFlood{rounds: 3}}
		return &bitFloods[v]
	})
	t.Logf("bytes per half-edge: unpacked %.1f, packed %.1f", unpacked, packed)
	if unpacked > 85 {
		t.Errorf("cold unpacked run allocates %.1f B per half-edge, want <= 85", unpacked)
	}
	if packed > 32 {
		t.Errorf("cold packed run allocates %.1f B per half-edge, want <= 32", packed)
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

// TestConfigTelemetryForce pins the per-run telemetry lever: Config.Telemetry
// collects a full record for its run alone.
func TestConfigTelemetryForce(t *testing.T) {
	g := graph.Ring(32)
	res, err := Run(Config{Graph: g}, floodFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("telemetry collected without Config.Telemetry")
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
