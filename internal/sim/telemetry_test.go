package sim

import (
	"fmt"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// checkTelemetryInvariants asserts the structural invariants every
// scheduler's record must satisfy: one entry per round aligned with
// ActivePerRound, consistent lane counts, non-negative compute times no
// larger than the round wall time (a lane's compute phase is strictly
// contained in the coordinator's round window, and the clock is monotonic),
// and staged counts that sum to the run's message total.
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
}

func TestTelemetryDisabledByDefault(t *testing.T) {
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
// geometric fringe shrinkage exercises sparse and dense delivery — under
// every scheduler with telemetry on.
func TestTelemetryInvariants(t *testing.T) {
	rng := prng.New(99)
	g := graph.GNPConnected(300, 0.03, rng)
	n := g.N()
	ids := RandomIDs(n, 4, NewSimulationKey(17))
	cfg := Config{Graph: g, IDs: ids, MaxMessageBits: CongestBits(n), Telemetry: true}
	factory := func(int) NodeProgram[uint64] { return &staggeredHalt{} }
	res, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	checkTelemetryInvariants(t, "sequential", res)
	if res.Telemetry.Scheduler != Sequential || res.Telemetry.Workers != 1 {
		t.Errorf("sequential telemetry header = %v/%d", res.Telemetry.Scheduler, res.Telemetry.Workers)
	}

	for _, workers := range []int{2, 4} {
		res, err = RunParallel(cfg, factory, workers)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("parallel/workers=%d", workers)
		checkTelemetryInvariants(t, label, res)
		tel := res.Telemetry
		if tel.Scheduler != Parallel || tel.Workers != workers {
			t.Errorf("%s: telemetry header = %v/%d", label, tel.Scheduler, tel.Workers)
		}
	}
}

// TestTelemetryDeliveryModes pins the mode choice on one worker: an
// all-active flood on a dense-enough graph sweeps the whole plane (dense),
// while a long sparse tail walks staged slots (sparse).
func TestTelemetryDeliveryModes(t *testing.T) {
	if DeliverSparse.String() != "sparse" || DeliverDense.String() != "dense" || DeliverPacked.String() != "packed" {
		t.Error("DeliveryMode.String names drifted")
	}
	// Complete graph, everyone floods: every round but the silent last one
	// stages the full plane, so they must take the dense path.
	res, err := Run(Config{Graph: graph.Complete(24), Telemetry: true}, floodFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	for r := 0; r < len(tel.Rounds)-1; r++ {
		if tel.Rounds[r].Mode[0] != DeliverDense {
			t.Errorf("complete-graph round %d mode = %v, want dense", r, tel.Rounds[r].Mode[0])
		}
	}
	// Star where only the hub talks, on one port: one staged slot of 2(n−1)
	// per round — every round must stay sparse.
	res, err = Run(Config{Graph: graph.Star(64), Telemetry: true}, func(v int) NodeProgram[uint64] {
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
