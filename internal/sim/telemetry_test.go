package sim

import (
	"fmt"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// withTelemetry runs f with telemetry collection enabled, restoring the
// previous setting afterwards.
func withTelemetry(t *testing.T, f func()) {
	t.Helper()
	prev := TelemetryEnabled()
	SetTelemetry(true)
	defer SetTelemetry(prev)
	f()
}

// checkTelemetryInvariants asserts the structural invariants every
// scheduler's record must satisfy: one entry per round aligned with
// ActivePerRound, consistent lane counts, non-negative compute times no
// larger than the round wall time (a lane's compute phase is strictly
// contained in the coordinator's round window, and the clock is monotonic),
// staged counts that sum to the run's message total, and re-shard events
// strictly monotone in round index.
func checkTelemetryInvariants(t *testing.T, label string, res *Result[uint64]) {
	t.Helper()
	tel := res.Telemetry
	if tel == nil {
		t.Fatalf("%s: telemetry enabled but Result.Telemetry is nil", label)
	}
	if tel.Workers <= 0 {
		t.Fatalf("%s: telemetry reports %d workers", label, tel.Workers)
	}
	if len(tel.Rounds) != res.Rounds {
		t.Fatalf("%s: %d round records for %d rounds", label, len(tel.Rounds), res.Rounds)
	}
	var staged int64
	var compute int64
	for r, rs := range tel.Rounds {
		if len(rs.ComputeNS) != tel.Workers || len(rs.Staged) != tel.Workers || len(rs.Mode) != tel.Workers {
			t.Fatalf("%s: round %d lane counts (%d,%d,%d) != workers %d",
				label, r, len(rs.ComputeNS), len(rs.Staged), len(rs.Mode), tel.Workers)
		}
		if rs.WallNS < 0 {
			t.Errorf("%s: round %d wall time %d < 0", label, r, rs.WallNS)
		}
		for w, c := range rs.ComputeNS {
			if c < 0 {
				t.Errorf("%s: round %d lane %d compute %d < 0", label, r, w, c)
			}
			if c > rs.WallNS {
				t.Errorf("%s: round %d lane %d compute %d exceeds round wall %d", label, r, w, c, rs.WallNS)
			}
			compute += c
		}
		for w, s := range rs.Staged {
			if s < 0 {
				t.Errorf("%s: round %d lane %d staged %d < 0", label, r, w, s)
			}
			staged += int64(s)
		}
	}
	if staged != res.Messages {
		t.Errorf("%s: staged counts sum to %d, want Messages = %d", label, staged, res.Messages)
	}
	if res.Rounds > 0 && compute == 0 {
		t.Errorf("%s: every compute-time sample is zero across %d rounds", label, res.Rounds)
	}
	prevRound := -1
	for i, ev := range tel.Reshards {
		if ev.Round <= prevRound {
			t.Errorf("%s: reshard event %d at round %d not after previous round %d", label, i, ev.Round, prevRound)
		}
		prevRound = ev.Round
		if ev.Round >= res.Rounds {
			t.Errorf("%s: reshard event %d at round %d beyond run's %d rounds", label, i, ev.Round, res.Rounds)
		}
		if ev.Live <= 0 {
			t.Errorf("%s: reshard event %d over %d live nodes", label, i, ev.Live)
		}
		if ev.CostNS < 0 || ev.WasteNS < 0 {
			t.Errorf("%s: reshard event %d negative cost %d or waste %d", label, i, ev.CostNS, ev.WasteNS)
		}
	}
}

func TestTelemetryDisabledByDefault(t *testing.T) {
	if TelemetryEnabled() {
		t.Fatal("telemetry enabled at package init")
	}
	g := graph.Ring(32)
	res, err := Run(Config{Graph: g}, floodFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Error("Result.Telemetry non-nil with collection disabled")
	}
}

// TestTelemetryInvariants runs the staggered-termination program — whose
// geometric fringe shrinkage exercises sparse and dense delivery and (on the
// parallel engine) re-sharding — under every scheduler with telemetry on.
func TestTelemetryInvariants(t *testing.T) {
	rng := prng.New(99)
	g := graph.GNPConnected(300, 0.03, rng)
	n := g.N()
	ids := RandomIDs(n, 4, NewSimulationKey(17))
	cfg := Config{Graph: g, IDs: ids, MaxMessageBits: CongestBits(n)}
	factory := func(int) NodeProgram[uint64] { return &staggeredHalt{} }
	withTelemetry(t, func() {
		res, err := Run(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		checkTelemetryInvariants(t, "sequential", res)
		if res.Telemetry.Scheduler != Sequential || res.Telemetry.Workers != 1 {
			t.Errorf("sequential telemetry header = %v/%d", res.Telemetry.Scheduler, res.Telemetry.Workers)
		}
		if len(res.Telemetry.Reshards) != 0 {
			t.Error("sequential engine reported reshard events")
		}

		for _, workers := range []int{2, 4} {
			pcfg := cfg
			pcfg.Reshard = ReshardHalving // deterministic cut schedule
			res, err = RunParallel(pcfg, factory, workers)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("parallel/workers=%d", workers)
			checkTelemetryInvariants(t, label, res)
			tel := res.Telemetry
			if tel.Scheduler != Parallel || tel.Workers != workers {
				t.Errorf("%s: telemetry header = %v/%d", label, tel.Scheduler, tel.Workers)
			}
			// The staggered program halves the fringe round after round, so
			// the halving rule must have cut at least once on this n.
			if len(tel.Reshards) == 0 {
				t.Errorf("%s: no reshard events under ReshardHalving", label)
			}
			for _, ev := range tel.Reshards {
				if ev.WasteNS != 0 {
					t.Errorf("%s: halving-policy event carries imbalance debt %d", label, ev.WasteNS)
				}
				// The cut runs after round ev.Round, over that round's
				// surviving worklist: at most the nodes active then.
				if ev.Live > res.ActivePerRound[ev.Round] {
					t.Errorf("%s: event at round %d over %d live > %d active",
						label, ev.Round, ev.Live, res.ActivePerRound[ev.Round])
				}
			}
		}
	})
}

// TestTelemetryDeliveryModes pins the mode choice on the sequential engine:
// an all-active flood on a dense-enough graph swaps planes (dense), while a
// long sparse tail walks staged slots (sparse).
func TestTelemetryDeliveryModes(t *testing.T) {
	withTelemetry(t, func() {
		// Complete graph, everyone floods: every round but the silent last
		// one stages the full plane, so they must take the dense path.
		res, err := Run(Config{Graph: graph.Complete(24)}, floodFactory(3))
		if err != nil {
			t.Fatal(err)
		}
		tel := res.Telemetry
		for r := 0; r < len(tel.Rounds)-1; r++ {
			if tel.Rounds[r].Mode[0] != DeliverDense {
				t.Errorf("complete-graph round %d mode = %v, want dense", r, tel.Rounds[r].Mode[0])
			}
		}
		// Star where only the hub talks, on one port: one staged slot of
		// 2(n−1) per round — every round must stay sparse.
		res, err = Run(Config{Graph: graph.Star(64)}, func(v int) NodeProgram[uint64] {
			if v == 0 {
				return &singlePortTalker{rounds: 6}
			}
			return &haltNow{}
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, rs := range res.Telemetry.Rounds {
			if rs.Mode[0] != DeliverSparse {
				t.Errorf("star round %d mode = %v, want sparse", r, rs.Mode[0])
			}
		}
	})
}

// singlePortTalker sends one message on port 0 every round (nodes without
// ports stay silent) for a fixed number of rounds.
type singlePortTalker struct {
	ctx    *NodeCtx
	rounds int
}

func (p *singlePortTalker) Init(ctx *NodeCtx) { p.ctx = ctx }

func (p *singlePortTalker) Round(r int, inbox []Message) ([]Message, bool) {
	if r >= p.rounds {
		return nil, true
	}
	out := p.ctx.Broadcast(nil)
	if len(out) > 0 {
		out[0] = p.ctx.Uints(uint64(r))
	}
	return out, false
}

func (p *singlePortTalker) Output() uint64 { return 0 }

// haltNow terminates silently in round 0.
type haltNow struct{}

func (h *haltNow) Init(*NodeCtx)                          {}
func (h *haltNow) Round(int, []Message) ([]Message, bool) { return nil, true }
func (h *haltNow) Output() uint64                         { return 0 }

// TestReshardModel unit-tests the adaptive policy's arithmetic with
// synthetic compute times — no clocks, no engine.
func TestReshardModel(t *testing.T) {
	m := newReshardModel(4, 1000)
	if m.costEstNS != 4*1000+1000 {
		t.Fatalf("initial cost estimate = %d", m.costEstNS)
	}
	// A perfectly balanced round accrues no debt, so no cut is warranted
	// no matter how far the worklist shrank.
	m.charge(100, 400)
	if m.wasteNS != 0 {
		t.Fatalf("balanced round charged %d", m.wasteNS)
	}
	if m.shouldCut(10) {
		t.Error("cut proposed with zero debt")
	}
	// Skewed rounds accrue idle time: one worker at 10000ns, three idle.
	for i := 0; i < 2; i++ {
		m.charge(10_000, 10_000) // 4*10000-10000 = 30000 per round
	}
	if m.wasteNS != 60_000 {
		t.Fatalf("debt = %d, want 60000", m.wasteNS)
	}
	// Debt exceeds 2×5000? No: estimate is 5000, threshold 10000 — yes it
	// does. But an unchanged worklist must still refuse the cut.
	if m.shouldCut(1000) {
		t.Error("cut proposed for an unchanged worklist")
	}
	if !m.shouldCut(999) {
		t.Error("cut refused despite debt 60000 >= 2×5000")
	}
	// After a measured cut the estimate replaces the guess and debt resets.
	m.cutDone(999, 40_000)
	if m.costEstNS != 40_000 || m.wasteNS != 0 || m.lastCutLive != 999 {
		t.Fatalf("post-cut model = %+v", m)
	}
	m.charge(30_000, 30_000) // debt 90000 > 2×40000
	if !m.shouldCut(500) {
		t.Error("cut refused after sufficient new debt")
	}
	// A suspiciously cheap measured cut is floored so the model cannot be
	// talked into cutting every round.
	m.cutDone(500, 0)
	if m.costEstNS != 1000 {
		t.Errorf("cost floor = %d, want 1000", m.costEstNS)
	}
}

// TestReshardPolicyEquivalence extends the equivalence suite across
// re-shard policies: whatever cut schedule a policy produces — fixed
// halving, cost-model, or none — the Result must be byte-identical to the
// sequential engine's.
func TestReshardPolicyEquivalence(t *testing.T) {
	rng := prng.New(505)
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", graph.PowerLaw(400, 3, rng)},
		{"gnp", graph.GNPConnected(350, 0.02, rng)},
	} {
		t.Run(tg.name, func(t *testing.T) {
			n := tg.g.N()
			ids := RandomIDs(n, 3, NewSimulationKey(uint64(n)*7+5))
			cfg := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n)}
			factory := func(int) NodeProgram[uint64] { return &staggeredHalt{} }
			want, err := Run(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []ReshardPolicy{ReshardAuto, ReshardAdaptive, ReshardHalving, ReshardOff} {
				for _, workers := range []int{2, 3, 8} {
					pcfg := cfg
					pcfg.Reshard = policy
					got, err := RunParallel(pcfg, factory, workers)
					if err != nil {
						t.Fatal(err)
					}
					assertResultsEqual(t, fmt.Sprintf("%v/workers=%d", policy, workers), want, got)
				}
			}
		})
	}
}

func TestParseReshardPolicy(t *testing.T) {
	for name, want := range map[string]ReshardPolicy{
		"": ReshardAuto, "auto": ReshardAuto,
		"adaptive": ReshardAdaptive,
		"halving":  ReshardHalving,
		"off":      ReshardOff, "never": ReshardOff,
	} {
		got, err := ParseReshardPolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseReshardPolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseReshardPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if ReshardAuto.String() != "auto" || ReshardHalving.String() != "halving" ||
		ReshardAdaptive.String() != "adaptive" || ReshardOff.String() != "off" {
		t.Error("ReshardPolicy.String names drifted")
	}
	// An explicit policy must survive a conflicting package default: the
	// Auto sentinel, not Adaptive, is what defers to SetDefaultReshard.
	SetDefaultReshard(ReshardOff)
	defer SetDefaultReshard(ReshardAuto)
	if got := DefaultReshard(); got != ReshardOff {
		t.Fatalf("DefaultReshard() = %v after SetDefaultReshard(Off)", got)
	}
	SetDefaultReshard(ReshardAuto) // Auto resets to the adaptive default
	if got := DefaultReshard(); got != ReshardAdaptive {
		t.Errorf("DefaultReshard() = %v after SetDefaultReshard(Auto), want adaptive", got)
	}
	if DeliverSparse.String() != "sparse" || DeliverDense.String() != "dense" || DeliverPacked.String() != "packed" {
		t.Error("DeliveryMode.String names drifted")
	}
}
