package sim

import (
	"errors"
	"os"
	"testing"

	"randlocal/internal/graph"
)

// TestMain enables the poisoned-Outbox check for the whole package's test
// run: every program in this suite that uses NodeCtx.Outbox is thereby
// verified to set or nil every port, every round, on every scheduler.
func TestMain(m *testing.M) {
	SetDebugOutboxCheck(true)
	os.Exit(m.Run())
}

// stalePortFlood is the footgun the poisoned-Outbox check exists for: it
// returns NodeCtx.Outbox but only sets the even ports, leaving the odd ones
// whatever the scratch held before.
type stalePortFlood struct{ ctx *NodeCtx }

func (s *stalePortFlood) Init(ctx *NodeCtx) { s.ctx = ctx }

func (s *stalePortFlood) Round(r int, inbox []Message) ([]Message, bool) {
	out := s.ctx.Outbox
	for p := 0; p < len(out); p += 2 {
		out[p] = s.ctx.Uints(uint64(r))
	}
	return out, false
}

func (s *stalePortFlood) Output() int { return 0 }

func TestPoisonedOutboxCheckCatchesUnsetPorts(t *testing.T) {
	g := graph.Ring(8) // degree 2: port 1 stays unset every round
	cfg := Config{Graph: g, MaxRounds: 8}
	factory := func(int) NodeProgram[int] { return &stalePortFlood{} }

	var poisonErr *OutboxPortError
	if _, err := Run(cfg, factory); !errors.As(err, &poisonErr) {
		t.Fatalf("sequential: got %v, want OutboxPortError", err)
	}
	if poisonErr.Node != 0 || poisonErr.Port != 1 {
		t.Errorf("sequential reported node=%d port=%d, want node=0 port=1", poisonErr.Node, poisonErr.Port)
	}
	if _, err := RunParallel(cfg, factory, 3); !errors.As(err, &poisonErr) {
		t.Fatalf("parallel: got %v, want OutboxPortError", err)
	}
}

// TestPoisonedOutboxCheckAllowsShortAndOwnOutboxes pins the check's
// boundaries: a program that returns its own allocated outbox (even one
// shorter than its degree — the nil-padding convention) must not trip it,
// and neither must an Outbox user that nils ports instead of setting them.
func TestPoisonedOutboxCheckAllowsShortAndOwnOutboxes(t *testing.T) {
	g := graph.Ring(6)
	res, err := Run(Config{Graph: g}, floodFactory(3))
	if err != nil {
		t.Fatalf("own-outbox program tripped the check: %v", err)
	}
	if res.Rounds == 0 {
		t.Error("no rounds ran")
	}
	// outboxFlood sets or nils every port of the engine scratch.
	res2, err := Run(Config{Graph: g}, func(int) NodeProgram[uint64] { return &outboxFlood{rounds: 3} })
	if err != nil {
		t.Fatalf("well-behaved Outbox program tripped the check: %v", err)
	}
	if res2.Rounds == 0 {
		t.Error("no rounds ran")
	}
}

func TestDebugOutboxCheckToggle(t *testing.T) {
	if !debugOutboxCheck.Load() {
		t.Fatal("TestMain should have enabled the check")
	}
	// With the check disabled, the stale program runs (incorrectly but
	// silently) — the documented default-off behavior.
	SetDebugOutboxCheck(false)
	defer SetDebugOutboxCheck(true)
	g := graph.Ring(4)
	if _, err := Run(Config{Graph: g, MaxRounds: 4}, func(int) NodeProgram[int] { return &stalePortFlood{} }); err != nil {
		var stuck *StuckError
		if !errors.As(err, &stuck) {
			t.Fatalf("check disabled: got %v, want only the round-cap StuckError", err)
		}
	}
}
