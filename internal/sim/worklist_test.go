package sim

import (
	"fmt"
	"math/bits"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// staggeredHalt is the worklist-correctness protocol: node v floods the
// smallest value it has heard but halts at a round determined by its ID
// alone — trailingZeros(ID+1), capped — so the live fringe shrinks
// geometrically and the expected per-round active counts can be computed
// independently of any engine. Payloads are carved from the per-round arena
// and outboxes assembled in the engine scratch, so the test also exercises
// both allocation-free paths on every scheduler.
type staggeredHalt struct {
	ctx  *NodeCtx
	halt int
	best uint64
}

// staggeredHaltRound is the ID-dependent halting round, capped so runs stay
// short even with wide random IDs.
func staggeredHaltRound(id uint64) int {
	return bits.TrailingZeros64(id+1) % 9
}

func (f *staggeredHalt) Init(ctx *NodeCtx) {
	f.ctx = ctx
	f.best = ctx.ID
	f.halt = staggeredHaltRound(ctx.ID)
}

func (f *staggeredHalt) Round(r int, inbox []Message) ([]Message, bool) {
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

func (f *staggeredHalt) Output() uint64 { return f.best }

// TestWorklistStaggeredTermination checks the active-node worklist on both
// schedulers: the per-round active counts must equal the prediction
// #{v : haltRound(id[v]) >= r} derived from the halting rule alone, and the
// full Results must stay byte-identical across schedulers, on GNP, tree and
// power-law networks.
func TestWorklistStaggeredTermination(t *testing.T) {
	rng := prng.New(2024)
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPConnected(160, 0.05, rng)},
		{"tree", graph.RandomTree(170, rng)},
		{"powerlaw", graph.PowerLaw(150, 3, rng)},
	} {
		t.Run(tg.name, func(t *testing.T) {
			n := tg.g.N()
			ids := RandomIDs(n, 4, NewSimulationKey(uint64(n)*3+1))

			// Engine-independent prediction of the live-fringe trajectory.
			maxHalt := 0
			for _, id := range ids {
				if h := staggeredHaltRound(id); h > maxHalt {
					maxHalt = h
				}
			}
			predicted := make([]int, maxHalt+1)
			for _, id := range ids {
				for r := 0; r <= staggeredHaltRound(id); r++ {
					predicted[r]++
				}
			}

			cfg := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n)}
			factory := func(int) NodeProgram[uint64] { return &staggeredHalt{} }
			want, err := Run(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			if want.Rounds != maxHalt+1 {
				t.Errorf("rounds = %d, want %d", want.Rounds, maxHalt+1)
			}
			if len(want.ActivePerRound) != len(predicted) {
				t.Fatalf("active trace length %d, want %d", len(want.ActivePerRound), len(predicted))
			}
			for r, p := range predicted {
				if want.ActivePerRound[r] != p {
					t.Errorf("round %d: active = %d, predicted %d", r, want.ActivePerRound[r], p)
				}
			}
			if want.ActivePerRound[0] != n {
				t.Errorf("round 0 active = %d, want all %d nodes", want.ActivePerRound[0], n)
			}

			for _, workers := range []int{2, 3, 8, n} {
				got, err := RunParallel(cfg, factory, workers)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, fmt.Sprintf("parallel/workers=%d", workers), want, got)
			}
		})
	}
}

// TestActivePerRoundUniformTermination pins the trajectory shape when no
// node halts early: every round reports all n nodes active, on every
// scheduler.
func TestActivePerRoundUniformTermination(t *testing.T) {
	g := graph.Ring(24)
	rounds := 5
	want, err := Run(Config{Graph: g}, floodFactory(rounds))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.ActivePerRound) != rounds+1 {
		t.Fatalf("trace length %d, want %d", len(want.ActivePerRound), rounds+1)
	}
	for r, a := range want.ActivePerRound {
		if a != g.N() {
			t.Errorf("round %d: active = %d, want %d", r, a, g.N())
		}
	}
	got, err := RunParallel(Config{Graph: g}, floodFactory(rounds), 3)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "parallel", want, got)
}
