// Customprogram: writing your own zero-allocation NodeProgram, following
// the README recipe step by step — outboxes assembled in the engine-owned
// NodeCtx.Outbox window (Broadcast), payloads carved from the per-round
// arena (NodeCtx.Uints), fixed-shape messages decoded into a struct-held
// scratch array (DecodeUintsInto) — then run on one worker and on four with
// byte-identical results, with scheduling telemetry switched on to watch
// the live fringe shrink and the delivery strategy adapt to it.
package main

import (
	"fmt"
	"log"

	"randlocal"
)

// rumor floods the smallest (ID, distance-ish hopcount) pair it has heard
// and halts a few rounds after its value stops improving, so the network
// terminates in a staggered wave — the live-fringe shape the engines'
// worklists and telemetry exist for.
type rumor struct {
	ctx     *randlocal.NodeCtx
	best    uint64
	hops    uint64
	stable  int
	scratch [2]uint64 // decode scratch: fixed-shape messages, zero allocs
}

func (r *rumor) Init(ctx *randlocal.NodeCtx) {
	r.ctx = ctx
	r.best = ctx.ID
}

func (r *rumor) Round(round int, inbox []randlocal.Message) ([]randlocal.Message, bool) {
	improved := false
	for _, m := range inbox {
		if m == nil {
			continue
		}
		// Step 3 of the recipe: DecodeUintsInto with a struct-held
		// scratch — never the allocating DecodeUints in a hot round.
		if !randlocal.DecodeUintsInto(m, r.scratch[:]) {
			continue
		}
		if v, h := r.scratch[0], r.scratch[1]+1; v < r.best || (v == r.best && h < r.hops) {
			r.best, r.hops = v, h
			improved = true
		}
	}
	if improved {
		r.stable = 0
	} else if r.stable++; r.stable >= 3 {
		return nil, true // nothing new for three rounds: halt
	}
	// Steps 1–2: Broadcast fills the engine-owned Outbox window, and the
	// payload bytes come from the engine's per-round arena. Steady-state
	// rounds of this program allocate nothing at all.
	return r.ctx.Broadcast(r.ctx.Uints(r.best, r.hops)), false
}

func (r *rumor) Output() uint64 { return r.best }

func main() {
	g := randlocal.GNPConnected(4096, 4.0/4096, randlocal.NewRNG(12))
	fmt.Printf("network: %v\n\n", g)

	// Telemetry is collected for runs whose config asks for it, at
	// near-zero cost when off.
	cfg := randlocal.SimConfig{Graph: g, MaxMessageBits: randlocal.CongestBits(g.N()), Telemetry: true}
	factory := func(int) randlocal.NodeProgram[uint64] { return &rumor{} }

	seq, err := randlocal.Run(cfg, factory)
	if err != nil {
		log.Fatal(err)
	}
	par, err := randlocal.RunParallel(cfg, factory, 4)
	if err != nil {
		log.Fatal(err)
	}
	// The model-level Result is byte-identical across widths...
	fmt.Printf("rounds=%d messages=%d bits=%d on 1 and 4 workers: %v\n",
		seq.Rounds, seq.Messages, seq.BitsTotal,
		seq.Rounds == par.Rounds && seq.Messages == par.Messages)

	// ...including the live-fringe trajectory, which shows the staggered
	// termination wave the worklists turn into O(active)-cost rounds.
	fmt.Printf("live fringe (ActivePerRound): %v\n\n", seq.ActivePerRound)

	// Telemetry is the *host-level* story of the same run: where the time
	// went, how many messages each worker staged, and which delivery
	// strategy each round picked.
	tel := par.Telemetry
	fmt.Printf("parallel telemetry: %d workers × %d rounds\n", tel.Workers, len(tel.Rounds))
	for r, rs := range tel.Rounds {
		if r < 3 || r == len(tel.Rounds)-1 {
			fmt.Printf("  round %2d: staged=%v modes=%v\n", r, rs.Staged, rs.Mode)
		}
	}
}
