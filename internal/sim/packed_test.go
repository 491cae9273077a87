package sim

import (
	"errors"
	"fmt"
	mathbits "math/bits"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// bitGossip is the in-package 1-bit exercise program for the packed planes:
// an OR-flood whose nodes halt at staggered rounds. It declares PayloadBits()
// = 1, reads its inbox through every packed accessor (InBitWord, InBit), and
// alternates BroadcastBit with a masked broadcast to stronger-ID neighbors,
// so one run exercises the whole dual-backend accessor surface. The output
// mixes the flooded bit with a count of all presence bits ever heard, which
// makes any divergence in delivery — not just in the final OR — visible.
type bitGossip struct {
	rounds   int
	ctx      *NodeCtx
	stronger []uint64
	bit      uint64
	heard    uint64
}

func (g *bitGossip) PayloadBits() int { return 1 }

func (g *bitGossip) Init(ctx *NodeCtx) {
	g.ctx = ctx
	if ctx.Rand != nil {
		g.bit = ctx.Rand.Bits(1)
	} else {
		g.bit = ctx.ID & 1
	}
	g.stronger = make([]uint64, ctx.BitWords())
	for p := 0; p < ctx.Degree; p++ {
		if ctx.NeighborIDs[p] > ctx.ID {
			g.stronger[p>>6] |= 1 << (uint(p) & 63)
		}
	}
}

func (g *bitGossip) Round(r int, _ []Message) ([]Message, bool) {
	var heardOne uint64
	for j := 0; j < g.ctx.BitWords(); j++ {
		pres, val := g.ctx.InBitWord(j)
		g.heard += uint64(mathbits.OnesCount64(pres))
		heardOne |= pres & val
	}
	if g.ctx.Degree > 0 {
		if b, ok := g.ctx.InBit(0); ok {
			g.heard += b << 8
		}
	}
	if heardOne != 0 {
		g.bit = 1
	}
	if r >= g.rounds+int(g.ctx.ID%3) {
		return nil, true
	}
	if r%2 == 1 {
		return g.ctx.BroadcastBitMask(g.bit, g.stronger), false
	}
	return g.ctx.BroadcastBit(g.bit), false
}

func (g *bitGossip) Output() uint64 { return g.bit<<32 | g.heard }

// requirePackedModes asserts that a run actually executed over packed planes:
// every telemetry lane of every round must report DeliverPacked. Without this
// the equivalence tests could pass vacuously with packing silently disabled.
func requirePackedModes(t *testing.T, label string, res *Result[uint64]) {
	t.Helper()
	if res.Telemetry == nil {
		t.Fatalf("%s: no telemetry collected", label)
	}
	for r, rs := range res.Telemetry.Rounds {
		for w, m := range rs.Mode {
			if m != DeliverPacked {
				t.Fatalf("%s: round %d lane %d mode %v, want packed", label, r, w, m)
			}
		}
	}
}

// requireStagedSum asserts the telemetry invariant that per-lane staged
// counts sum to Result.Messages — on packed runs the counts are tallied by
// the word-walking harvest, so this pins its accounting.
func requireStagedSum(t *testing.T, label string, res *Result[uint64]) {
	t.Helper()
	sum := 0
	for _, rs := range res.Telemetry.Rounds {
		for _, s := range rs.Staged {
			sum += s
		}
	}
	if int64(sum) != res.Messages {
		t.Fatalf("%s: staged sum %d != messages %d", label, sum, res.Messages)
	}
}

// TestPackedUnpackedEquivalence is the representation-independence proof of
// the bit planes: on every graph family and randomness regime, the packed
// run must produce a byte-identical Result to the unpacked run of the same
// program, and must really run packed — on one worker and on an eight-worker
// pool whose shards straddle plane words (FuzzEngines covers one to three
// workers). Word-boundary-hostile sizes (odd rings, a star whose hub spans
// multiple words) are in the family on purpose.
func TestPackedUnpackedEquivalence(t *testing.T) {
	rng := prng.New(2027)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring-odd", graph.Ring(67)},
		{"star", graph.Star(71)},
		{"gnp", graph.GNPConnected(120, 0.04, rng)},
		{"powerlaw", graph.PowerLaw(130, 3, rng)},
	}
	for _, tg := range graphs {
		n := tg.g.N()
		key := NewSimulationKey(uint64(n)*17 + 3)
		ids := RandomIDs(n, n, key)
		rounds := graph.Diameter(tg.g) + 2
		factory := func(int) NodeProgram[uint64] { return &bitGossip{rounds: rounds} }
		for _, regime := range []string{"deterministic", "full"} {
			t.Run(tg.name+"/"+regime, func(t *testing.T) {
				base := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n), Telemetry: true}
				prep := func(cfg Config) Config {
					if regime == "full" {
						cfg.Source = key.FullSource()
					}
					return cfg
				}

				unpacked := base
				unpacked.Unpacked = true
				want, err := Run(prep(unpacked), factory)
				if err != nil {
					t.Fatal(err)
				}
				for _, rs := range want.Telemetry.Rounds {
					if rs.Mode[0] == DeliverPacked {
						t.Fatal("Unpacked run reported packed delivery")
					}
				}

				got, err := Run(prep(base), factory)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, "sequential/packed", want, got)
				requirePackedModes(t, "sequential/packed", got)
				requireStagedSum(t, "sequential/packed", got)

				for _, unpack := range []bool{false, true} {
					cfg := base
					cfg.Unpacked = unpack
					got, err := RunParallel(prep(cfg), factory, 8)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("parallel/workers=8/unpacked=%v", unpack)
					assertResultsEqual(t, label, want, got)
					if !unpack {
						requirePackedModes(t, label, got)
						requireStagedSum(t, label, got)
					}
				}
			})
		}
	}
}

// TestPackedFaultEquivalence holds faulted packed runs to the reference
// engine: with the adversary injecting deterministic drop/delay/crash/
// churn/stall schedules, packed and unpacked runs alike must reproduce the
// reference's every Result field and its injected-event record — fates hash
// (round, slot) and the canonical 1-bit wire encoding is 8 bits in both
// representations, so nothing about the fault schedule may shift.
func TestPackedFaultEquivalence(t *testing.T) {
	rng := prng.New(907)
	g := graph.GNPConnected(120, 0.05, rng)
	n := g.N()
	key := NewSimulationKey(uint64(n)*29 + 7)
	ids := RandomIDs(n, n, key)
	rounds := graph.Diameter(g) + 2
	factory := func(int) NodeProgram[uint64] { return &bitGossip{rounds: rounds} }
	budgets := []struct {
		name string
		cfg  AdversaryConfig
	}{
		{"drop", AdversaryConfig{DropProb: 0.10}},
		{"crash", AdversaryConfig{CrashPerRound: 2}},
		{"kitchen-sink", AdversaryConfig{
			DropProb: 0.05, DelayProb: 0.05, DelayMax: 2,
			CrashPerRound: 1, ChurnPerRound: 2, HealPerRound: 1, StallPerRound: 2,
		}},
	}
	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			cfg := Config{
				Graph: g, IDs: ids, MaxMessageBits: CongestBits(n),
				Adversary: mustAdversary(t, key, b.cfg), Source: key.FullSource(),
			}
			want, err := runReference(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				for _, unpack := range []bool{false, true} {
					c := cfg
					c.Unpacked = unpack
					c.Source = key.FullSource()
					got, err := RunParallel(c, factory, workers)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesReference(t, fmt.Sprintf("workers=%d/unpacked=%v", workers, unpack), want, got)
				}
			}
		})
	}
}

// TestPackedGating pins the conditions under which packing may NOT engage:
// a program that never declared a payload width, a mix where one program
// declares more than a bit, and a bandwidth cap below the canonical 8-bit
// wire encoding (which must surface as the unpacked path's BandwidthError,
// not be silently absorbed by a bitmap).
func TestPackedGating(t *testing.T) {
	g := graph.Ring(40)
	base := Config{Graph: g, MaxMessageBits: CongestBits(g.N()), Telemetry: true}

	res, err := Run(base, func(int) NodeProgram[uint64] { return &randFlood{rounds: 3} })
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res.Telemetry.Rounds {
		if rs.Mode[0] == DeliverPacked {
			t.Fatal("undeclared program ran packed")
		}
	}

	res, err = Run(base, func(v int) NodeProgram[uint64] {
		if v == 7 {
			return &wideDeclarer{}
		}
		return &bitGossip{rounds: 3}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res.Telemetry.Rounds {
		if rs.Mode[0] == DeliverPacked {
			t.Fatal("mixed-width run ran packed")
		}
	}

	narrow := base
	narrow.MaxMessageBits = 4
	_, err = Run(narrow, func(int) NodeProgram[uint64] { return &bitGossip{rounds: 3} })
	var bw *BandwidthError
	if !errors.As(err, &bw) {
		t.Fatalf("MaxMessageBits=4 packed-capable run: got %v, want BandwidthError", err)
	}
}

// wideDeclarer declares a 64-bit payload; its presence in a run must veto
// packing.
type wideDeclarer struct {
	randFlood
}

func (w *wideDeclarer) PayloadBits() int { return 64 }

// TestDenseCutoverUnit pins the shared density cut-off the unpacked and
// packed scatter phases decide with:
// dense iff denseCutover·staged ≥ window, with the constant at 8.
func TestDenseCutoverUnit(t *testing.T) {
	if denseCutover != 8 {
		t.Fatalf("denseCutover = %d, want 8", denseCutover)
	}
	cases := []struct {
		staged, window int
		want           bool
	}{
		{0, 1, false},
		{1, 8, true},
		{1, 9, false},
		{7, 64, false},
		{8, 64, true},
		{64, 128, true},
	}
	for _, c := range cases {
		if got := denseDelivery(c.staged, c.window); got != c.want {
			t.Errorf("denseDelivery(%d, %d) = %v, want %v", c.staged, c.window, got, c.want)
		}
	}
}

// modeProbe broadcasts every round from a fixed sender set until a fixed
// round, then halts everywhere — a program whose per-round staged count is
// known exactly, so a test can pin which delivery mode a plane window of
// known size must pick.
type modeProbe struct {
	rounds int
	send   bool
	ctx    *NodeCtx
}

func (p *modeProbe) Init(ctx *NodeCtx) { p.ctx = ctx }

func (p *modeProbe) Round(r int, _ []Message) ([]Message, bool) {
	if r >= p.rounds {
		return nil, true
	}
	if !p.send {
		return nil, false
	}
	return p.ctx.Broadcast(p.ctx.Uints(1)), false
}

func (p *modeProbe) Output() uint64 { return 0 }

// TestDenseCutoverPaths drives the unpacked scatter — over the whole plane
// on one worker, over per-shard windows on two — through staged counts on
// either side of the 8× cut-off and asserts the telemetry mode flips
// exactly there. Ring(64) with two workers gives each
// lane a 64-slot inbox window, so 8 staged arrivals is the dense threshold.
func TestDenseCutoverPaths(t *testing.T) {
	g := graph.Ring(64)
	run := func(t *testing.T, senders []int, parallel bool) *Result[uint64] {
		t.Helper()
		isSender := make([]bool, g.N())
		for _, v := range senders {
			isSender[v] = true
		}
		cfg := Config{Graph: g, MaxMessageBits: CongestBits(g.N()), Telemetry: true}
		factory := func(v int) NodeProgram[uint64] { return &modeProbe{rounds: 3, send: isSender[v]} }
		var res *Result[uint64]
		var err error
		if parallel {
			res, err = RunParallel(cfg, factory, 2)
		} else {
			res, err = Run(cfg, factory)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	all := make([]int, 64)
	for v := range all {
		all[v] = v
	}

	// One-worker window = 128 slots: 14 staged stays sparse, 16 flips dense.
	// Senders v send to v±1, so k ring-contiguous senders stage 2k slots.
	for _, c := range []struct {
		k    int
		want DeliveryMode
	}{{7, DeliverSparse}, {8, DeliverDense}} {
		res := run(t, all[:c.k], false)
		for r := 0; r < 3; r++ {
			if got := res.Telemetry.Rounds[r].Mode[0]; got != c.want {
				t.Errorf("sequential k=%d round %d: mode %v, want %v", c.k, r, got, c.want)
			}
		}
	}

	// Parallel, workers=2: shards are nodes [0,32) and [32,64),
	// each with a 64-slot window. Senders {1,2,3} land 6 arrivals in shard 0
	// (sparse); {1,2,3,4} land 8 (exactly dense). Shard 1 hears nothing and
	// must stay sparse either way.
	for _, c := range []struct {
		senders []int
		want    DeliveryMode
	}{{[]int{1, 2, 3}, DeliverSparse}, {[]int{1, 2, 3, 4}, DeliverDense}} {
		res := run(t, c.senders, true)
		for r := 0; r < 3; r++ {
			if got := res.Telemetry.Rounds[r].Mode[0]; got != c.want {
				t.Errorf("parallel senders=%v round %d: lane 0 mode %v, want %v", c.senders, r, got, c.want)
			}
			if got := res.Telemetry.Rounds[r].Mode[1]; got != DeliverSparse {
				t.Errorf("parallel senders=%v round %d: lane 1 mode %v, want sparse", c.senders, r, got)
			}
		}
	}
}
