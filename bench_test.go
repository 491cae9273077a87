package randlocal

// One benchmark per experiment in EXPERIMENTS.md (the paper has no
// empirical tables of its own, so each benchmark regenerates the measured
// side of one theorem's claim; EXPERIMENTS.md maps experiments to
// theorems). Run:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the quality parameters next to the timing:
// colors, cluster diameter, rounds, and true random bits, so a benchmark
// run doubles as a regression check on the "shape" of each claim.

import (
	"fmt"
	"math/bits"
	"path/filepath"
	"runtime"
	"testing"
)

// BenchmarkE1ElkinNeiman measures the randomized baseline decomposition
// (experiment E1, claim of §2/[EN16]).
func BenchmarkE1ElkinNeiman(b *testing.B) {
	g := GNPConnected(1024, 4.0/1024, NewRNG(1))
	b.ResetTimer()
	var colors, diam, rounds int
	for i := 0; i < b.N; i++ {
		src := NewFullRandomness(uint64(i))
		d, res, err := ElkinNeiman(g, src, nil, ENConfig{})
		if err != nil {
			b.Fatal(err)
		}
		st := d.StatsOf(g)
		colors, diam, rounds = st.Colors, st.MaxDiameter, res.Rounds
	}
	b.ReportMetric(float64(colors), "colors")
	b.ReportMetric(float64(diam), "clusterDiam")
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE2LowRand measures the Theorem 3.1 one-bit-per-ball pipeline
// (experiment E2).
func BenchmarkE2LowRand(b *testing.B) {
	g := Ring(2000)
	holders := GreedyDominatingSet(g, 2)
	cfg := LowRandConfig{H: 2, BitsPerCluster: 64, RulingAlphaFactor: 4}
	b.ResetTimer()
	var bits int64
	for i := 0; i < b.N; i++ {
		src, err := NewSparseRandomness(holders, 1, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		res, err := LowRand(g, src, holders, cfg)
		if err != nil {
			b.Fatal(err)
		}
		bits = src.Ledger().TrueBits()
		_ = res
	}
	b.ReportMetric(float64(bits), "trueBits")
}

// BenchmarkE3Splitting measures Lemma 3.4's zero-round splitting under the
// three randomness regimes (experiment E3).
func BenchmarkE3Splitting(b *testing.B) {
	inst := RandomSplittingInstance(100, 500, 40, NewRNG(3))
	b.Run("private", func(b *testing.B) {
		ok := 0
		for i := 0; i < b.N; i++ {
			if inst.Check(SolveSplittingPrivate(inst, NewFullRandomness(uint64(i)))) {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N), "successRate")
	})
	b.Run("kwise", func(b *testing.B) {
		ok := 0
		for i := 0; i < b.N; i++ {
			fam, err := NewKWise(16, 32, NewRNG(uint64(i)*7+1))
			if err != nil {
				b.Fatal(err)
			}
			if inst.Check(SolveSplittingKWise(inst, fam)) {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N), "successRate")
		b.ReportMetric(16*32, "seedBits")
	})
	b.Run("epsbias", func(b *testing.B) {
		ok := 0
		for i := 0; i < b.N; i++ {
			gen, err := NewEpsBias(24, NewRNG(uint64(i)*9+1))
			if err != nil {
				b.Fatal(err)
			}
			if inst.Check(SolveSplittingEpsBias(inst, gen)) {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N), "successRate")
		b.ReportMetric(48, "seedBits")
	})
}

// BenchmarkE4KWiseCFMC measures the Theorem 3.5 conflict-free
// multi-coloring pipeline with k-wise marking (experiment E4).
func BenchmarkE4KWiseCFMC(b *testing.B) {
	rng := NewRNG(4)
	h := &Hypergraph{N: 600}
	for e := 0; e < 25; e++ {
		size := 64 + rng.Intn(64)
		perm := rng.Perm(600)
		h.Edges = append(h.Edges, append([]int(nil), perm[:size]...))
	}
	b.ResetTimer()
	var colors int
	for i := 0; i < b.N; i++ {
		fam, err := NewKWise(64, 64, NewRNG(uint64(i)*13+5))
		if err != nil {
			b.Fatal(err)
		}
		res, err := SolveCFMC(h, fam, 8, 12)
		if err != nil {
			b.Fatal(err)
		}
		colors = res.Colors
	}
	b.ReportMetric(float64(colors), "colors")
}

// BenchmarkE5SharedRand measures the Theorem 3.6 shared-seed decomposition
// (experiment E5).
func BenchmarkE5SharedRand(b *testing.B) {
	g := GNPConnected(512, 3.0/512, NewRNG(5))
	b.ResetTimer()
	var seedBits, colors int
	for i := 0; i < b.N; i++ {
		shared := NewSharedRandomness(300_000, NewRNG(uint64(i)+1))
		res, err := SharedRand(g, shared, SharedRandConfig{})
		if err != nil {
			b.Fatal(err)
		}
		seedBits = res.SeedBitsUsed
		colors = res.Decomposition.NumColors()
	}
	b.ReportMetric(float64(seedBits), "seedBits")
	b.ReportMetric(float64(colors), "colors")
}

// BenchmarkE6Shattering measures the Theorem 4.2 shatter-and-repair
// construction with a weakened first phase (experiment E6).
func BenchmarkE6Shattering(b *testing.B) {
	g := GNPConnected(600, 3.0/600, NewRNG(6))
	b.ResetTimer()
	var leftover, separated int
	for i := 0; i < b.N; i++ {
		res, err := Shattering(g, NewFullRandomness(uint64(i)), ShatteringConfig{ENPhases: 2})
		if err != nil {
			b.Fatal(err)
		}
		leftover, separated = res.Leftover, res.SeparatedLeftover
	}
	b.ReportMetric(float64(leftover), "leftover")
	b.ReportMetric(float64(separated), "separatedCore")
}

// BenchmarkE7SeedSearch measures the Lemma 4.1 exhaustive derandomization
// over all labeled 4-node graphs (experiment E7).
func BenchmarkE7SeedSearch(b *testing.B) {
	p := NeighborhoodSplitting(3)
	instances := AllGraphs(4)
	ids := func(g *Graph) []uint64 { return SequentialIDs(g.N()) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SeedSearch(p, instances, ids, 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(instances)), "instances")
}

// BenchmarkE8Derandomize measures the SLOCAL-compiled deterministic MIS
// against Luby (experiment E8).
func BenchmarkE8Derandomize(b *testing.B) {
	g := GNPConnected(256, 4.0/256, NewRNG(8))
	b.Run("luby", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			_, res, err := Luby(g, NewFullRandomness(uint64(i)), nil, LubyConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("slocal-compiled", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := DerandomizedMIS(g)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.AnalyticRounds
		}
		b.ReportMetric(float64(rounds), "rounds")
		b.ReportMetric(0, "trueBits")
	})
}

// BenchmarkE9Ledger measures the randomness-accounting overhead itself:
// the engine with and without a source attached (experiment E9's
// instrument).
func BenchmarkE9Ledger(b *testing.B) {
	g := GNPConnected(512, 4.0/512, NewRNG(9))
	b.Run("luby-accounted", func(b *testing.B) {
		var bits int64
		for i := 0; i < b.N; i++ {
			src := NewFullRandomness(uint64(i))
			if _, _, err := Luby(g, src, nil, LubyConfig{}); err != nil {
				b.Fatal(err)
			}
			bits = src.Ledger().TrueBits()
		}
		b.ReportMetric(float64(bits), "trueBits")
	})
	b.Run("en-accounted", func(b *testing.B) {
		var bits int64
		for i := 0; i < b.N; i++ {
			src := NewFullRandomness(uint64(i))
			if _, _, err := ElkinNeiman(g, src, nil, ENConfig{}); err != nil {
				b.Fatal(err)
			}
			bits = src.Ledger().TrueBits()
		}
		b.ReportMetric(float64(bits), "trueBits")
	})
}

// BenchmarkE10MPX measures the single-pass MPX partition ablation
// (experiment E10).
func BenchmarkE10MPX(b *testing.B) {
	g := GNPConnected(512, 4.0/512, NewRNG(10))
	var diam, cut int
	for i := 0; i < b.N; i++ {
		res, err := MPXPartition(g, NewFullRandomness(uint64(i)), nil, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		diam, cut = res.MaxClusterDiameter, res.CutEdges
	}
	b.ReportMetric(float64(diam), "clusterDiam")
	b.ReportMetric(float64(cut), "cutEdges")
}

// BenchmarkE10Sinkless measures the sinkless-orientation retry process on
// a 4-regular torus (experiment E10, the §1.1 separation example).
func BenchmarkE10Sinkless(b *testing.B) {
	g := Torus(24, 24)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := SinklessOrientation(g, NewFullRandomness(uint64(i)), 0)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// benchFlood is the fixed-round flooding program the engine-scaling
// benchmarks run: pure messaging load with no randomness, so the timings
// isolate scheduler overhead. It assembles its outbox in the engine-owned
// NodeCtx.Outbox scratch (a window of the engine's flat message plane) and
// carves payloads from the per-round arena (NodeCtx.Uints), so steady-state
// rounds allocate nothing at all.
type benchFlood struct {
	rounds int
	ctx    *NodeCtx
	best   uint64
}

func (f *benchFlood) Init(ctx *NodeCtx) { f.ctx = ctx; f.best = ctx.ID }

func (f *benchFlood) Round(r int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		if x, _, ok := ReadUint(m); ok && x < f.best {
			f.best = x
		}
	}
	if r >= f.rounds {
		return nil, true
	}
	out := f.ctx.Outbox
	payload := f.ctx.Uints(f.best)
	for p := range out {
		out[p] = payload
	}
	return out, false
}

func (f *benchFlood) Output() uint64 { return f.best }

const benchFloodRounds = 8

func benchEngineGraph(n int) *Graph {
	return GNPConnected(n, 6.0/float64(n), NewRNG(uint64(n)))
}

// floodSlabFactory returns a factory handing out benchFlood programs carved
// from one pre-allocated slab — the construction idiom for million-node
// runs: with outboxes in the engine scratch and payloads in the arena, the
// n per-node program allocations were the last n-proportional allocation
// class left in these benchmarks, and a slab turns them into one. (Bonus:
// program state becomes one contiguous array, which the index-ordered round
// sweep walks in prefetch-friendly order.)
func floodSlabFactory(n int) func(int) NodeProgram[uint64] {
	slab := make([]benchFlood, n)
	return func(v int) NodeProgram[uint64] {
		slab[v] = benchFlood{rounds: benchFloodRounds}
		return &slab[v]
	}
}

func staggeredSlabFactory(n int) func(int) NodeProgram[uint64] {
	slab := make([]staggeredBench, n)
	return func(v int) NodeProgram[uint64] { return &slab[v] }
}

// BenchmarkRun is the one-worker baseline for the engine-scaling comparison
// at the sizes the ROADMAP targets.
func BenchmarkRun(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipHeavy(b, n)
			g := benchEngineGraph(n)
			cfg := SimConfig{Graph: g, MaxMessageBits: CongestBits(n)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, floodSlabFactory(n))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Messages), "msgs")
			}
		})
	}
}

// skipHeavy keeps `go test -short -bench .` an actual smoke test: the 2^20
// engine rows run seconds-to-minutes per op and are already exercised by the
// CI bench-gate job, so short mode skips them.
func skipHeavy(b *testing.B, n int) {
	if testing.Short() && n >= 1<<20 {
		b.Skip("-short: skipping 2^20 rows (covered by the bench-gate job)")
	}
}

// BenchmarkENDecomp runs the full Elkin–Neiman construction — the paper's
// central workload. The n=2048 row is the daemon's en-file shape:
// gnp(2048, 4/n) with the default RadiusCap, so phases are as long as a
// real run's and most flood rounds re-send an unchanged top-2. The engine-
// scale rows use RadiusCap 8, keeping a phase at 10 rounds so the 2^20-node
// run stays in benchmark territory while the message pattern (top-2
// candidate floods on every live port) matches the real construction; they
// measure whether the *algorithm programs*, not just the engines, allocate
// per message.
func BenchmarkENDecomp(b *testing.B) {
	rows := []struct {
		n, radiusCap int
		g            func(n int) *Graph
	}{
		{1 << 11, 0, func(n int) *Graph { return GNPConnected(n, 4.0/float64(n), NewRNG(uint64(n))) }},
		{1 << 16, 8, benchEngineGraph},
		{1 << 20, 8, benchEngineGraph},
	}
	for _, row := range rows {
		b.Run(fmt.Sprintf("n=%d", row.n), func(b *testing.B) {
			skipHeavy(b, row.n)
			g := row.g(row.n)
			b.ResetTimer()
			var msgs int64
			var rounds int
			for i := 0; i < b.N; i++ {
				_, res, err := ElkinNeiman(g, NewFullRandomness(uint64(i)+1), nil, ENConfig{RadiusCap: row.radiusCap})
				if err != nil {
					b.Fatal(err)
				}
				msgs, rounds = res.Messages, res.Rounds
			}
			b.ReportMetric(float64(msgs), "msgs")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// staggeredBench is the late-round-dominated workload of the shattering
// analyses: node v halts after 4·trailingZeros(ID+1) rounds, so half the
// network halts in round 0, a quarter four rounds later, and a single node
// survives past round 4·log₂ n. Total compute work is O(n), but an engine
// that sweeps all n done flags (and the whole message plane) every round
// pays O(n log n).
type staggeredBench struct {
	ctx  *NodeCtx
	halt int
	best uint64
}

func (f *staggeredBench) Init(ctx *NodeCtx) {
	f.ctx = ctx
	f.best = ctx.ID
	f.halt = 4 * bits.TrailingZeros64(ctx.ID+1)
}

func (f *staggeredBench) Round(r int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		if x, _, ok := ReadUint(m); ok && x < f.best {
			f.best = x
		}
	}
	if r >= f.halt {
		return nil, true
	}
	out := f.ctx.Outbox
	payload := f.ctx.Uints(f.best)
	for p := range out {
		out[p] = payload
	}
	return out, false
}

func (f *staggeredBench) Output() uint64 { return f.best }

// BenchmarkRunStaggered measures the staggered-termination workload on one
// worker — the case the active-node worklist targets: late rounds
// must cost O(active), not O(n).
func BenchmarkRunStaggered(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipHeavy(b, n)
			g := benchEngineGraph(n)
			cfg := SimConfig{Graph: g, MaxMessageBits: CongestBits(n)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, staggeredSlabFactory(n))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Messages), "msgs")
			}
		})
	}
}

// BenchmarkRunParallel measures the sharded worker-pool engine on the same
// load; at n=1048576 with workers=GOMAXPROCS it must beat BenchmarkRun
// wall-clock on multi-core hardware.
func BenchmarkRunParallel(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				skipHeavy(b, n)
				g := benchEngineGraph(n)
				cfg := SimConfig{Graph: g, MaxMessageBits: CongestBits(n)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := RunParallel(cfg, floodSlabFactory(n), workers)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Messages), "msgs")
				}
			})
		}
	}
}

// BenchmarkRunParallelStaggered puts the worker pool on the late-round-
// dominated workload: the live worklist halves round after round, so this
// is the row that exercises the adaptive dense/sparse scatter and the
// barrier imbalance of a fixed cut over a shrinking fringe.
func BenchmarkRunParallelStaggered(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				skipHeavy(b, n)
				g := benchEngineGraph(n)
				cfg := SimConfig{Graph: g, MaxMessageBits: CongestBits(n)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := RunParallel(cfg, staggeredSlabFactory(n), workers)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Messages), "msgs")
				}
			})
		}
	}
}

// lubyBitBench pins the benchmark shape of the 1-bit Luby rows: both
// the packed row and its unpacked baseline run the exact same program on the
// same graph with the same seeds, so the Results are byte-identical and the
// ns/op delta isolates the message-plane representation.
func lubyBitBench(b *testing.B, n int, unpacked bool) {
	skipHeavy(b, n)
	lubyBitBenchGraph(b, n, benchEngineGraph(n), unpacked)
}

func lubyBitBenchGraph(b *testing.B, n int, g *Graph, unpacked bool) {
	cfg := SimConfig{Graph: g, MaxMessageBits: CongestBits(n), Unpacked: unpacked}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Source = NewFullRandomness(uint64(i) + 1)
		res, err := Run(cfg, NewLubyBitProgramSlab(n, LubyBitConfig{}))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Messages), "msgs")
		b.ReportMetric(float64(res.Rounds), "rounds")
	}
}

// BenchmarkLuby is the unpacked baseline of the bit-plane comparison: the
// coin-flip 1-bit Luby program with SimConfig.Unpacked set, so every message
// occupies a full Message slot and delivery walks slots one at a time.
func BenchmarkLuby(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { lubyBitBench(b, n, true) })
	}
}

// BenchmarkLubyPacked is the same program over packed bit planes (the
// default once every program declares PayloadBits() = 1): delivery and the
// coin/status scans run word-parallel, 64 half-edge lanes at a time.
func BenchmarkLubyPacked(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { lubyBitBench(b, n, false) })
	}
}

// BenchmarkRunParallelLubyPacked runs the packed 1-bit Luby program on the
// sharded worker pool: word-rounded plane windows and packed per-shard
// staging, on exactly the configured width. The Result is byte-identical to
// BenchmarkLubyPacked's one-worker rows for equal seeds; the ns/op delta is
// pure engine overhead or speedup.
func BenchmarkRunParallelLubyPacked(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				skipHeavy(b, n)
				g := benchEngineGraph(n)
				cfg := SimConfig{Graph: g, MaxMessageBits: CongestBits(n)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg.Source = NewFullRandomness(uint64(i) + 1)
					res, err := RunParallel(cfg, NewLubyBitProgramSlab(n, LubyBitConfig{}), workers)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Messages), "msgs")
					b.ReportMetric(float64(res.Rounds), "rounds")
				}
			})
		}
	}
}

// benchFileGraph round-trips benchEngineGraph(n) through the on-disk CSR
// format and reopens it as the read-only mmap-backed graph — what a
// `locsim -graphfile` run of the same size executes on. The write and map
// happen once, outside the timed loop: the rows measure warm execution over
// the mapping, not file construction.
func benchFileGraph(b *testing.B, n int) *Graph {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.csr")
	if err := WriteCSRFile(benchEngineGraph(n), path); err != nil {
		b.Fatal(err)
	}
	g, closer, err := OpenCSRFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { closer.Close() })
	return g
}

// BenchmarkLubyPackedFile is BenchmarkLubyPacked with the graph served from
// the mmap-backed on-disk CSR instead of RAM — same program, same seeds,
// byte-identical Results. The ns/op delta against the same-run
// BenchmarkLubyPacked row is the warm out-of-core overhead.
// scripts/bench_gate.sh holds each row to its own BENCH_PR10.json baseline;
// nothing gates the ratio.
func BenchmarkLubyPackedFile(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipHeavy(b, n)
			lubyBitBenchGraph(b, n, benchFileGraph(b, n), false)
		})
	}
}

// BenchmarkFloodMinBit measures the pure-messaging 1-bit workload — a
// fixed-round AND-flood where every node broadcasts every round — packed
// against unpacked, at the engine-scaling sizes. This is the densest load
// the bit planes see: every half-edge lane carries a bit every round.
func BenchmarkFloodMinBit(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		for _, mode := range []struct {
			name     string
			unpacked bool
		}{{"packed", false}, {"unpacked", true}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				skipHeavy(b, n)
				g := benchEngineGraph(n)
				cfg := SimConfig{Graph: g, MaxMessageBits: CongestBits(n), Unpacked: mode.unpacked}
				slab := make([]FloodMinBitProgram, n)
				factory := func(v int) NodeProgram[uint64] {
					slab[v] = FloodMinBitProgram{Rounds: benchFloodRounds, Bit: uint64(v) & 1}
					return &slab[v]
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Run(cfg, factory)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Messages), "msgs")
				}
			})
		}
	}
}
