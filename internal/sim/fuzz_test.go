package sim

import (
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// fuzzCase is one point of the engine's knob space, decoded from FuzzEngines'
// raw arguments.
type fuzzCase struct {
	g       *graph.Graph
	key     SimulationKey
	adv     AdversaryConfig
	faulted bool
	workers int
	program uint8
	unpack  bool
	warm    bool
	foreign bool
	file    bool
	rounds  int
}

// fuzzFamilies are the graph families FuzzEngines draws from; n is at most
// 64.
var fuzzFamilies = []func(n int, rng *prng.SplitMix64) *graph.Graph{
	func(n int, rng *prng.SplitMix64) *graph.Graph {
		return graph.GNPConnected(n, min(1, 4.0/float64(max(n, 1))), rng)
	},
	func(n int, rng *prng.SplitMix64) *graph.Graph { return graph.PowerLaw(n, 3, rng) },
	func(n int, rng *prng.SplitMix64) *graph.Graph { return graph.RandomTree(n, rng) },
	func(n int, _ *prng.SplitMix64) *graph.Graph { return graph.Ring(n) },
	func(n int, _ *prng.SplitMix64) *graph.Graph { return graph.Star(n) },
	func(n int, _ *prng.SplitMix64) *graph.Graph { return graph.Grid2D(max(n/8, 1), 8, true) },
	func(n int, _ *prng.SplitMix64) *graph.Graph { return graph.Path(n) },
}

const (
	famGNP = iota
	famPowerLaw
	famTree
	famRing
	famStar
	famGrid
	famPath
)

// Programs FuzzEngines runs: a full-width varint flood on fresh full-length
// slices, the same flood built on the engine-owned Outbox (checked by the
// poisoned-Outbox debug setting) or, with the foreign bit, on fresh slices
// that are sometimes shorter than the degree, and the 1-bit gossip that runs
// over packed planes unless unpacked.
const (
	progRandFlood = iota
	progOutboxFlood
	progBitGossip
	numPrograms
)

func decodeFuzzCase(family, size uint8, seed uint64, drop, delay, delayMax, crash, churn, heal, stall, workers, program uint8, packed, warm, foreign, file bool) fuzzCase {
	n := int(size % 65)
	c := fuzzCase{
		g:       fuzzFamilies[int(family)%len(fuzzFamilies)](n, prng.New(seed)),
		key:     NewSimulationKey(seed),
		workers: 1 + int(workers%3),
		program: program % numPrograms,
		unpack:  !packed,
		warm:    warm,
		foreign: foreign,
		file:    file,
		rounds:  3 + int(seed%6),
	}
	// Percent budgets capped at 90% together, so the sum of the two
	// probabilities stays valid after float rounding.
	dp := int(drop % 91)
	yp := min(int(delay%91), 90-dp)
	c.adv = AdversaryConfig{
		DropProb:      float64(dp) / 100,
		DelayProb:     float64(yp) / 100,
		DelayMax:      int(delayMax % 5),
		CrashPerRound: int(crash % 8),
		ChurnPerRound: int(churn % 8),
		HealPerRound:  int(heal % 4),
		StallPerRound: int(stall % 8),
	}
	c.faulted = !c.adv.Zero()
	return c
}

func (c fuzzCase) factory() func(int) NodeProgram[uint64] {
	switch c.program {
	case progOutboxFlood:
		return func(int) NodeProgram[uint64] { return &outboxFlood{rounds: c.rounds, foreign: c.foreign} }
	case progBitGossip:
		return func(int) NodeProgram[uint64] { return &bitGossip{rounds: c.rounds} }
	default:
		return func(int) NodeProgram[uint64] { return &randFlood{rounds: c.rounds} }
	}
}

// FuzzEngines holds the engine to the reference engine across its whole
// knob space: graph family and size, seed, every adversary budget, one to
// three workers, packed or unpacked planes, a cold or a warm pool, Outbox or
// foreign outbox slices, and an in-RAM or a file-backed graph. A warm case
// first dirties the pool's slab with a run at another width and the other
// plane representation, then runs on it; both runs must match. A file-backed
// case streams the graph through csrfile.Builder into a file and runs the
// engine on its read-only mapping, while the reference runs on the in-RAM
// graph. Every run must reproduce the reference's Result and, when faulted,
// its injected-event record.
//
// The seed corpus is the fault matrices the hand-written equivalence suites
// used to sweep at one to three workers (drop, delay, crash, stall, churn
// and all at once, on the gnp and power-law families, full-width and 1-bit,
// packed and unpacked, cold and warm), plus fault-free packed, unpacked and
// pooled cases on the word-boundary-hostile ring, star, grid and tree, and
// the degenerate sizes; then the same fault matrix and word-boundary
// families again over file-backed graphs and foreign outboxes. Every faulted
// case also reuses one Adversary for the reference and each engine run, so a
// plan that kept per-run state would diverge.
func FuzzEngines(f *testing.F) {
	type budget struct{ drop, delay, delayMax, crash, churn, heal, stall uint8 }
	budgets := []budget{
		{drop: 10},
		{delay: 10, delayMax: 3},
		{crash: 2},
		{stall: 3},
		{churn: 4, heal: 1},
		{drop: 5, delay: 5, delayMax: 2, crash: 1, churn: 2, heal: 1, stall: 2},
	}
	for i, b := range budgets {
		for _, fam := range []uint8{famGNP, famPowerLaw} {
			for w := uint8(0); w < 3; w++ {
				seed := uint64(100*i) + uint64(fam)*10 + uint64(w)
				f.Add(fam, uint8(64), seed, b.drop, b.delay, b.delayMax, b.crash, b.churn, b.heal, b.stall, w, uint8(progRandFlood), false, false, false, false)
				for _, packed := range []bool{false, true} {
					f.Add(fam, uint8(60), seed, b.drop, b.delay, b.delayMax, b.crash, b.churn, b.heal, b.stall, w, uint8(progBitGossip), packed, packed == (w == 2), false, false)
				}
			}
		}
	}
	for _, fam := range []uint8{famRing, famStar, famGrid, famTree} {
		for w := uint8(0); w < 3; w++ {
			seed := uint64(fam)*7 + uint64(w)
			f.Add(fam, uint8(63), seed, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), w, uint8(progBitGossip), true, w == 1, false, false)
			f.Add(fam, uint8(63), seed, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), w, uint8(progOutboxFlood), false, w == 2, false, false)
		}
	}
	// Degenerate sizes — the empty network, one node, short paths — under
	// crash and stall budgets that exceed the population, on a pool wider
	// than the network.
	for n := uint8(0); n < 4; n++ {
		f.Add(uint8(famPath), n, uint64(n), uint8(30), uint8(0), uint8(0), uint8(5), uint8(3), uint8(0), uint8(5), uint8(2), uint8(progRandFlood), false, false, false, false)
		f.Add(uint8(famPath), n, uint64(n), uint8(30), uint8(0), uint8(0), uint8(5), uint8(3), uint8(0), uint8(5), uint8(2), uint8(progBitGossip), true, true, false, false)
	}
	// File-backed graphs and foreign outboxes: the fault matrix on the gnp
	// family (1-bit gossip, packed at two widths) and the power-law family
	// (the foreign-outbox flood, in RAM at one width), then the fault-free
	// word-boundary families and the degenerate sizes.
	for i, b := range budgets {
		for w := uint8(0); w < 3; w++ {
			seed := uint64(1000+100*i) + uint64(w)
			f.Add(uint8(famGNP), uint8(60), seed, b.drop, b.delay, b.delayMax, b.crash, b.churn, b.heal, b.stall, w, uint8(progBitGossip), w != 1, w == 2, false, true)
			f.Add(uint8(famPowerLaw), uint8(64), seed, b.drop, b.delay, b.delayMax, b.crash, b.churn, b.heal, b.stall, w, uint8(progOutboxFlood), false, w == 1, true, w != 0)
		}
	}
	for _, fam := range []uint8{famRing, famStar, famGrid, famTree} {
		for w := uint8(0); w < 3; w++ {
			seed := uint64(fam)*11 + uint64(w)
			f.Add(fam, uint8(63), seed, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), w, uint8(progOutboxFlood), false, w == 0, true, true)
		}
	}
	for n := uint8(0); n < 4; n++ {
		f.Add(uint8(famPath), n, uint64(n), uint8(30), uint8(0), uint8(0), uint8(5), uint8(3), uint8(0), uint8(5), uint8(2), uint8(progOutboxFlood), false, false, true, true)
	}
	f.Fuzz(func(t *testing.T, family, size uint8, seed uint64, drop, delay, delayMax, crash, churn, heal, stall, workers, program uint8, packed, warm, foreign, file bool) {
		c := decodeFuzzCase(family, size, seed, drop, delay, delayMax, crash, churn, heal, stall, workers, program, packed, warm, foreign, file)
		cfg := Config{Graph: c.g, IDs: RandomIDs(c.g.N(), c.g.N(), c.key), MaxMessageBits: CongestBits(c.g.N())}
		if c.faulted {
			adv, err := NewAdversary(c.key, c.adv)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Adversary = adv
		}
		cfg.Source = c.key.FullSource()
		want, err := runReference(cfg, c.factory())
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if c.file {
			cfg.Graph = streamedFile(t, c.g)
		}
		run := func(label string, workers int, unpack bool, pool *EnginePool) {
			t.Helper()
			rc := cfg
			rc.Source = c.key.FullSource()
			rc.Unpacked = unpack
			rc.Pool = pool
			got, err := RunParallel(rc, c.factory(), workers)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertMatchesReference(t, label, want, got)
		}
		var pool *EnginePool
		if c.warm {
			pool = NewEnginePool()
			run("dirtying run", c.workers%3+1, !c.unpack, pool)
		}
		run("engine", c.workers, c.unpack, pool)
	})
}
