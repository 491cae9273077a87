// Package mis implements maximal-independent-set algorithms: Luby's classic
// randomized algorithm [Lub86, ABI86] as a genuine CONGEST node program —
// the O(log n)-round baseline that Linial's question asks to derandomize —
// a limited-independence variant that draws its priorities from a k-wise
// family, and the derandomized MIS obtained by compiling the greedy SLOCAL
// algorithm through a network decomposition (package slocal), which is the
// P-RLOCAL = P-SLOCAL pipeline the paper builds on.
package mis

import (
	"fmt"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// message types exchanged by the Luby program.
const (
	msgPriority = 1 // carries this phase's random priority
	msgIn       = 2 // "I joined the MIS"
	msgOut      = 3 // "a neighbor of mine joined; I am out"
)

// LubyConfig parameterizes the Luby program.
type LubyConfig struct {
	// PriorityBits is the width of each phase's random priority draw;
	// 0 means 2·⌈log₂ n⌉ + 8, making ties vanishingly rare (ties are
	// still broken deterministically by ID).
	PriorityBits int
	// Priority, when non-nil, overrides the private draw — the k-wise
	// experiments inject family-derived priorities here.
	Priority func(v, phase int) uint64
	// MaxPhases caps execution; 0 means 24·⌈log₂ n⌉ + 24 (the algorithm
	// needs O(log n) w.h.p.).
	MaxPhases int
	// Adversary, when non-nil, injects its faults (drops, delays, crashes,
	// churn, stalls) into the execution. Faults draw only from the
	// adversary stream of a SimulationKey, so attaching one never changes
	// the priority coins the nodes draw.
	Adversary *sim.Adversary
	// Exec carries the per-run execution knobs (scheduler, workers, engine
	// pool, telemetry, progress hook); the zero value runs on one worker
	// with fresh buffers.
	Exec sim.ExecOptions
}

// lubyProgram is one node of Luby's algorithm. Each phase takes three
// rounds: broadcast a fresh random priority; joiners (local priority maxima
// among still-active neighbors) announce IN; their neighbors announce OUT.
// IN/OUT announcements double as liveness tracking — a port that announced
// either is removed from the active neighbor set.
type lubyProgram struct {
	cfg        *LubyConfig // resolved; Luby's programs share one
	ctx        *sim.NodeCtx
	activePort []bool
	priority   uint64
	inMIS      bool
	decided    bool
}

// Init resolves the config and sizes the port mask of a program built by
// NewProgram; a program from newLubySlab arrives with both.
func (p *lubyProgram) Init(ctx *sim.NodeCtx) {
	p.ctx = ctx
	if p.cfg.PriorityBits == 0 || p.cfg.MaxPhases == 0 {
		c := p.cfg.withDefaults(ctx.N)
		p.cfg = &c
	}
	if p.activePort == nil {
		p.activePort = make([]bool, ctx.Degree)
	}
	for i := range p.activePort {
		p.activePort[i] = true
	}
}

// newLubySlab returns a factory that carves a run's programs from one slab
// and their port masks from another, all sharing one resolved config.
func newLubySlab(g *graph.Graph, cfg LubyConfig) func(int) sim.NodeProgram[LubyOutput] {
	n := g.N()
	rc := cfg.withDefaults(n)
	off, _, _ := g.CSR()
	progs := make([]lubyProgram, n)
	active := make([]bool, off[n])
	return func(v int) sim.NodeProgram[LubyOutput] {
		progs[v] = lubyProgram{cfg: &rc, activePort: active[off[v]:off[v+1]:off[v+1]]}
		return &progs[v]
	}
}

func (c LubyConfig) withDefaults(n int) LubyConfig {
	lg := 0
	for 1<<lg < n {
		lg++
	}
	if c.PriorityBits == 0 {
		c.PriorityBits = 2*lg + 8
	}
	if c.MaxPhases == 0 {
		c.MaxPhases = 24*lg + 24
	}
	return c
}

func (p *lubyProgram) drawPriority(phase int) uint64 {
	if p.cfg.Priority != nil {
		return p.cfg.Priority(p.ctx.Index, phase)
	}
	return p.ctx.Rand.Bits(p.cfg.PriorityBits)
}

// broadcastActive sends payload on every still-active port, assembling the
// outbox in the engine-owned NodeCtx.Outbox scratch via BroadcastActive, so
// a phase costs no outbox allocation.
func (p *lubyProgram) broadcastActive(payload sim.Message) []sim.Message {
	return p.ctx.BroadcastActive(payload, p.activePort)
}

// absorb processes IN/OUT notifications (arriving at the start of a phase
// or during the decision rounds) and updates the active-port set. It
// returns true if some active neighbor joined the MIS.
func (p *lubyProgram) absorb(inbox []sim.Message) (neighborJoined bool) {
	for port, m := range inbox {
		if m == nil {
			continue
		}
		kind, _, ok := sim.ReadUint(m)
		if !ok {
			continue
		}
		switch kind {
		case msgIn:
			neighborJoined = true
			p.activePort[port] = false
		case msgOut:
			p.activePort[port] = false
		}
	}
	return neighborJoined
}

func (p *lubyProgram) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	phase := r / 3
	t := r % 3
	if phase >= p.cfg.MaxPhases {
		return nil, true // give up undecided; the checker will flag it
	}
	switch t {
	case 0:
		// Late OUT notifications from the previous phase arrive here.
		if p.absorb(inbox) {
			// A neighbor joined at the very end of the last phase.
			p.decided = true
			return p.broadcastActive(p.ctx.Uints(msgOut)), true
		}
		p.priority = p.drawPriority(phase)
		return p.broadcastActive(p.ctx.Uints(msgPriority, p.priority)), false
	case 1:
		// Compare against active neighbors' priorities.
		win := true
		for port, m := range inbox {
			if m == nil || !p.activePort[port] {
				continue
			}
			var vals [2]uint64
			if !sim.DecodeUintsInto(m, vals[:]) || vals[0] != msgPriority {
				continue
			}
			theirs := vals[1]
			theirID := p.ctx.NeighborIDs[port]
			if theirs > p.priority || (theirs == p.priority && theirID > p.ctx.ID) {
				win = false
			}
		}
		if win {
			p.inMIS = true
			p.decided = true
			return p.broadcastActive(p.ctx.Uints(msgIn)), true
		}
		return nil, false
	default: // t == 2: process IN announcements
		if p.absorb(inbox) {
			p.decided = true
			return p.broadcastActive(p.ctx.Uints(msgOut)), true
		}
		return nil, false
	}
}

// Output reports (inMIS, decided); undecided nodes signal failure.
func (p *lubyProgram) Output() LubyOutput {
	return LubyOutput{InMIS: p.inMIS, Decided: p.decided}
}

// LubyOutput is the per-node result.
type LubyOutput struct {
	InMIS   bool
	Decided bool
}

// NewProgram returns one node's Luby state machine for direct use with the
// sim engines (the Luby helper wraps this with validation and unpacking).
func NewProgram(cfg LubyConfig) sim.NodeProgram[LubyOutput] {
	return &lubyProgram{cfg: &cfg}
}

// Luby runs Luby's MIS algorithm on g in the CONGEST model and returns the
// indicator vector. It errors if any node exhausted MaxPhases undecided.
func Luby(g *graph.Graph, src randomness.Source, ids []uint64, cfg LubyConfig) ([]bool, *sim.Result[LubyOutput], error) {
	simCfg := sim.Config{
		Graph:          g,
		IDs:            ids,
		Source:         src,
		MaxMessageBits: sim.CongestBits(g.N()),
		Adversary:      cfg.Adversary,
	}
	cfg.Exec.Apply(&simCfg)
	res, err := sim.Execute(simCfg, newLubySlab(g, cfg))
	if err != nil {
		return nil, nil, err
	}
	in := make([]bool, g.N())
	undecided := 0
	for v, out := range res.Outputs {
		in[v] = out.InMIS
		if !out.Decided {
			undecided++
		}
	}
	if undecided > 0 {
		return in, res, fmt.Errorf("mis: %d nodes undecided after all phases", undecided)
	}
	return in, res, nil
}

// Greedy computes the canonical sequential greedy MIS in index order — the
// locality-1 SLOCAL algorithm the paper cites as the motivating example for
// the SLOCAL model. It is the reference implementation for tests and the
// derandomization pipeline.
func Greedy(g *graph.Graph, order []int) []bool {
	n := g.N()
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	in := make([]bool, n)
	for _, v := range order {
		ok := true
		for _, w := range g.Neighbors(v) {
			if in[w] {
				ok = false
				break
			}
		}
		if ok {
			in[v] = true
		}
	}
	return in
}
