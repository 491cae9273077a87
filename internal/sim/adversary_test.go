package sim

import (
	"fmt"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

func mustAdversary(t *testing.T, key SimulationKey, cfg AdversaryConfig) *Adversary {
	t.Helper()
	adv, err := NewAdversary(key, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

func assertInjectedEqual(t *testing.T, label string, want, got *Telemetry) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: telemetry missing (want %v, got %v) — an adversary run must force collection", label, want != nil, got != nil)
	}
	if len(got.Injected) != len(want.Injected) {
		t.Fatalf("%s: %d injected events, want %d\ngot:  %v\nwant: %v",
			label, len(got.Injected), len(want.Injected), got.Injected, want.Injected)
	}
	for i := range want.Injected {
		if got.Injected[i] != want.Injected[i] {
			t.Fatalf("%s: injected[%d] = %v, want %v", label, i, got.Injected[i], want.Injected[i])
		}
	}
}

// TestAdversaryZeroBudgetInvariance is the proof that stream isolation
// works end to end: attaching an enabled adversary whose budgets are all
// zero yields a byte-identical Result — outputs, rounds, active trace,
// message/bit counters — to no adversary at all, on every scheduler.
func TestAdversaryZeroBudgetInvariance(t *testing.T) {
	rng := prng.New(31)
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPConnected(130, 0.04, rng)},
		{"powerlaw", graph.PowerLaw(140, 3, rng)},
	} {
		t.Run(tg.name, func(t *testing.T) {
			n := tg.g.N()
			key := NewSimulationKey(uint64(n) * 11)
			ids := RandomIDs(n, n, key)
			rounds := graph.Diameter(tg.g) + 1
			factory := func(int) NodeProgram[uint64] { return &randFlood{rounds: rounds} }
			base := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n)}

			run := func(cfg Config, sched Scheduler, workers int) *Result[uint64] {
				cfg.Source = key.FullSource()
				var res *Result[uint64]
				var err error
				if sched == Parallel {
					res, err = RunParallel(cfg, factory, workers)
				} else {
					res, err = Run(cfg, factory)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			want := run(base, Sequential, 0)
			faulted := base
			faulted.Adversary = mustAdversary(t, key, AdversaryConfig{})
			for _, sc := range []struct {
				label   string
				sched   Scheduler
				workers int
			}{
				{"sequential", Sequential, 0},
				{"parallel/1", Parallel, 1},
				{"parallel/3", Parallel, 3},
				{"parallel/8", Parallel, 8},
			} {
				got := run(faulted, sc.sched, sc.workers)
				assertResultsEqual(t, sc.label, want, got)
				if got.Telemetry == nil {
					t.Fatalf("%s: adversary run did not force telemetry", sc.label)
				}
				if len(got.Telemetry.Injected) != 0 {
					t.Errorf("%s: zero-budget adversary injected %v", sc.label, got.Telemetry.Injected)
				}
			}
		})
	}
}

// TestAdversaryFaultEquivalence holds faulted executions to the reference
// engine: under deterministic drop/delay/crash/churn/stall schedules, Run
// and an eight-worker pool must reproduce the reference's every Result field
// and its injected-event record. These are the fault matrices FuzzEngines is
// seeded with, at sizes above its n <= 64 and a width above its three.
func TestAdversaryFaultEquivalence(t *testing.T) {
	rng := prng.New(505)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPConnected(120, 0.05, rng)},
		{"powerlaw", graph.PowerLaw(130, 3, rng)},
	}
	budgets := []struct {
		name string
		cfg  AdversaryConfig
	}{
		{"drop", AdversaryConfig{DropProb: 0.10}},
		{"delay", AdversaryConfig{DelayProb: 0.10, DelayMax: 3}},
		{"crash", AdversaryConfig{CrashPerRound: 2}},
		{"stall", AdversaryConfig{StallPerRound: 3}},
		{"churn", AdversaryConfig{ChurnPerRound: 4, HealPerRound: 1}},
		{"kitchen-sink", AdversaryConfig{
			DropProb: 0.05, DelayProb: 0.05, DelayMax: 2,
			CrashPerRound: 1, ChurnPerRound: 2, HealPerRound: 1, StallPerRound: 2,
		}},
	}
	for _, tg := range graphs {
		n := tg.g.N()
		key := NewSimulationKey(uint64(n)*13 + 1)
		ids := RandomIDs(n, n, key)
		rounds := graph.Diameter(tg.g) + 2
		factory := func(int) NodeProgram[uint64] { return &randFlood{rounds: rounds} }
		for _, b := range budgets {
			t.Run(tg.name+"/"+b.name, func(t *testing.T) {
				cfg := Config{
					Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n),
					Adversary: mustAdversary(t, key, b.cfg),
				}
				cfg.Source = key.FullSource()
				want, err := runReference(cfg, factory)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 8} {
					cfg.Source = key.FullSource()
					got, err := RunParallel(cfg, factory, workers)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesReference(t, fmt.Sprintf("workers=%d", workers), want, got)
				}
			})
		}
	}
}

// TestAdversaryAlgorithmStreamUntouched is the engine-level golden
// isolation check: a faulted run consumes adversary coins, yet the
// algorithm coins each node draws are the exact sequence of the fault-free
// run — node outputs that depend only on private coins (not on messages)
// are bit-identical with and without an active adversary.
func TestAdversaryAlgorithmStreamUntouched(t *testing.T) {
	g := graph.GNPConnected(150, 0.05, prng.New(8))
	key := NewSimulationKey(77)
	// Each node outputs a pure function of its private coins, drawn over
	// several rounds; messages (all subject to drops) don't affect it.
	factory := func(int) NodeProgram[uint64] { return &coinEcho{rounds: 6} }
	cfg := Config{Graph: g, MaxMessageBits: CongestBits(g.N())}

	cfg.Source = key.FullSource()
	clean, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source = key.FullSource()
	cfg.Adversary = mustAdversary(t, key, AdversaryConfig{DropProb: 0.5, ChurnPerRound: 3})
	faulted, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	for v := range clean.Outputs {
		if clean.Outputs[v] != faulted.Outputs[v] {
			t.Fatalf("node %d drew different algorithm coins under faults: %x != %x",
				v, faulted.Outputs[v], clean.Outputs[v])
		}
	}
	if faulted.Messages >= clean.Messages {
		t.Errorf("drops did not reduce deliveries: %d >= %d", faulted.Messages, clean.Messages)
	}
}

// coinEcho draws private coins each round, broadcasts a constant, and
// outputs only the coin digest — so faults can change its inbox but never
// its output unless the coin stream itself was perturbed.
type coinEcho struct {
	rounds int
	ctx    *NodeCtx
	digest uint64
}

func (c *coinEcho) Init(ctx *NodeCtx) { c.ctx = ctx }

func (c *coinEcho) Round(r int, inbox []Message) ([]Message, bool) {
	c.digest = c.digest*0x100000001B3 ^ c.ctx.Rand.Bits(16)
	if r >= c.rounds {
		return nil, true
	}
	return c.ctx.Broadcast(c.ctx.Uints(1)), false
}

func (c *coinEcho) Output() uint64 { return c.digest }

// TestAdversaryTelemetryReconciliation checks the faulted accounting
// identity on every scheduler: the telemetry's staged (emitted) sums equal
// delivered Messages plus every recorded loss (drops, cuts, supersedes,
// expiries — stall losses and crashes destroy already-delivered messages,
// so they do not enter the identity), and the injected-event record is
// ordered: non-decreasing in round, strictly increasing per kind.
func TestAdversaryTelemetryReconciliation(t *testing.T) {
	rng := prng.New(606)
	g := graph.GNPConnected(140, 0.05, rng)
	n := g.N()
	key := NewSimulationKey(999)
	ids := RandomIDs(n, n, key)
	rounds := graph.Diameter(g) + 2
	factory := func(int) NodeProgram[uint64] { return &randFlood{rounds: rounds} }
	cfg := Config{
		Graph: g, IDs: ids, MaxMessageBits: CongestBits(n),
		Adversary: mustAdversary(t, key, AdversaryConfig{
			DropProb: 0.08, DelayProb: 0.08, DelayMax: 4,
			CrashPerRound: 1, ChurnPerRound: 2, StallPerRound: 2,
		}),
	}
	for _, sc := range []struct {
		label string
		run   func() (*Result[uint64], error)
	}{
		{"sequential", func() (*Result[uint64], error) { cfg.Source = key.FullSource(); return Run(cfg, factory) }},
		{"parallel", func() (*Result[uint64], error) { cfg.Source = key.FullSource(); return RunParallel(cfg, factory, 4) }},
	} {
		t.Run(sc.label, func(t *testing.T) {
			res, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			tel := res.Telemetry
			if tel == nil {
				t.Fatal("adversary run did not force telemetry")
			}
			var staged int64
			for _, rs := range tel.Rounds {
				for _, s := range rs.Staged {
					staged += int64(s)
				}
			}
			losses := map[InjectKind]int64{}
			for _, ev := range tel.Injected {
				losses[ev.Kind] += int64(ev.Count)
			}
			want := res.Messages + losses[InjectDrop] + losses[InjectCut] +
				losses[InjectSupersede] + losses[InjectExpire]
			if staged != want {
				t.Errorf("staged sum %d != messages %d + drops %d + cuts %d + supersedes %d + expiries %d",
					staged, res.Messages, losses[InjectDrop], losses[InjectCut],
					losses[InjectSupersede], losses[InjectExpire])
			}
			if losses[InjectDrop] == 0 || losses[InjectDelay] == 0 || losses[InjectCrash] == 0 {
				t.Errorf("expected some drops/delays/crashes, got %v", losses)
			}

			lastRound := -1
			lastPerKind := map[InjectKind]int{}
			for _, ev := range tel.Injected {
				if ev.Round < lastRound {
					t.Fatalf("injected events not ordered: %v", tel.Injected)
				}
				lastRound = ev.Round
				if prev, seen := lastPerKind[ev.Kind]; seen && ev.Round <= prev {
					t.Fatalf("kind %v not strictly increasing in round: %v", ev.Kind, tel.Injected)
				}
				lastPerKind[ev.Kind] = ev.Round
				if ev.Count <= 0 {
					t.Fatalf("empty injected event recorded: %v", ev)
				}
				if ev.Round >= res.Rounds {
					t.Fatalf("event round %d beyond executed rounds %d", ev.Round, res.Rounds)
				}
			}
		})
	}
}

// TestAdversaryForcesTelemetry double-checks the collection rule: with
// Config.Telemetry off, a fault-free run carries nil telemetry and an
// adversary run still carries a record.
func TestAdversaryForcesTelemetry(t *testing.T) {
	g := graph.Ring(20)
	clean, err := Run(Config{Graph: g}, floodFactory(4))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Telemetry != nil {
		t.Error("fault-free run collected telemetry without Config.Telemetry")
	}
	adv := mustAdversary(t, NewSimulationKey(1), AdversaryConfig{DropProb: 0.3})
	faulted, err := Run(Config{Graph: g, Adversary: adv}, floodFactory(4))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Telemetry == nil {
		t.Error("adversary run did not force telemetry")
	}
}

// TestAdversaryConfigValidation rejects out-of-range budgets.
func TestAdversaryConfigValidation(t *testing.T) {
	key := NewSimulationKey(3)
	for _, bad := range []AdversaryConfig{
		{DropProb: -0.1},
		{DropProb: 1.5},
		{DelayProb: 2},
		{DropProb: 0.7, DelayProb: 0.7},
		{CrashPerRound: -1},
		{StallPerRound: -2},
	} {
		if _, err := NewAdversary(key, bad); err == nil {
			t.Errorf("accepted invalid config %+v", bad)
		}
	}
	adv := mustAdversary(t, key, AdversaryConfig{DelayProb: 0.1})
	if adv.Config().DelayMax != 1 {
		t.Errorf("DelayMax not normalized to 1: %d", adv.Config().DelayMax)
	}
	if !(AdversaryConfig{}).Zero() {
		t.Error("zero config not reported as Zero")
	}
}

// TestAdversaryRandomnessSourceIndependence checks the zero-budget
// invariance under the shared and sparse regimes too — the adversary must
// not interact with any source type.
func TestAdversaryRandomnessSourceIndependence(t *testing.T) {
	g := graph.GNPConnected(90, 0.06, prng.New(21))
	n := g.N()
	key := NewSimulationKey(1010)
	holders := make([]int, 0, n/2)
	for v := 0; v < n; v += 2 {
		holders = append(holders, v)
	}
	for _, reg := range []struct {
		name string
		mk   func() randomness.Source
	}{
		{"shared", func() randomness.Source { return key.SharedSource(64) }},
		{"sparse", func() randomness.Source {
			src, err := key.SparseSource(holders, 8)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
	} {
		t.Run(reg.name, func(t *testing.T) {
			rounds := graph.Diameter(g) + 1
			factory := func(int) NodeProgram[uint64] { return &randFlood{rounds: rounds} }
			cfg := Config{Graph: g, MaxMessageBits: CongestBits(n)}
			cfg.Source = reg.mk()
			want, err := Run(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Source = reg.mk()
			cfg.Adversary = mustAdversary(t, key, AdversaryConfig{})
			got, err := Run(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, reg.name, want, got)
		})
	}
}
