// Package coloring implements (Δ+1)-vertex-coloring: the classic randomized
// trial-color algorithm as a CONGEST node program (the O(log n)-round
// baseline), and the greedy reference used by tests and the SLOCAL
// derandomization pipeline.
package coloring

import (
	"fmt"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

const (
	msgCandidate = 1
	msgFinal     = 2
)

// Config parameterizes the randomized coloring program.
type Config struct {
	// MaxPhases caps execution; 0 means 24·⌈log₂ n⌉ + 24.
	MaxPhases int
	// Candidate, when non-nil, overrides the private uniform draw with an
	// injected function of (node, phase, paletteSize) returning an index
	// into the node's current palette — the limited-independence
	// experiments hook in here.
	Candidate func(v, phase, paletteSize int) int
	// Adversary, when non-nil, injects its faults into the execution;
	// attaching one never changes the candidate coins the nodes draw.
	Adversary *sim.Adversary
	// Exec carries the per-run execution knobs (scheduler, workers, engine
	// pool, telemetry, progress hook); the zero value defers to the
	// package-wide defaults. Multi-tenant hosts set it per run.
	Exec sim.ExecOptions
}

// program is one node of the trial-color algorithm. Each phase takes two
// rounds: undecided nodes draw a uniform candidate from their remaining
// palette and broadcast it; a node keeps its candidate unless an active
// neighbor drew the same one and has a higher identifier. Finalized nodes
// announce their color, which neighbors strike from their palettes.
type program struct {
	cfg       Config
	ctx       *sim.NodeCtx
	palette   []int
	active    []bool
	candidate int
	color     int
	decided   bool
}

func (p *program) Init(ctx *sim.NodeCtx) {
	p.ctx = ctx
	if p.cfg.MaxPhases == 0 {
		lg := 0
		for 1<<lg < ctx.N {
			lg++
		}
		p.cfg.MaxPhases = 24*lg + 24
	}
	// deg+1 colors always suffice for this node.
	p.palette = make([]int, ctx.Degree+1)
	for i := range p.palette {
		p.palette[i] = i
	}
	p.active = make([]bool, ctx.Degree)
	for i := range p.active {
		p.active[i] = true
	}
	p.color = -1
}

func (p *program) strike(color int) {
	for i, c := range p.palette {
		if c == color {
			p.palette = append(p.palette[:i], p.palette[i+1:]...)
			return
		}
	}
}

// broadcastActive fills the engine-owned outbox with payload on the ports
// whose neighbors are still undecided; payloads are carved from the per-round
// arena, so a steady-state phase allocates nothing.
func (p *program) broadcastActive(payload sim.Message) []sim.Message {
	return p.ctx.BroadcastActive(payload, p.active)
}

func (p *program) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	phase := r / 2
	t := r % 2
	if phase >= p.cfg.MaxPhases {
		return nil, true // give up; color stays -1
	}
	switch t {
	case 0:
		// FINAL announcements from the previous phase arrive here.
		for port, m := range inbox {
			if m == nil {
				continue
			}
			var vals [2]uint64
			if sim.DecodeUintsInto(m, vals[:]) && vals[0] == msgFinal {
				p.strike(int(vals[1]))
				p.active[port] = false
			}
		}
		if len(p.palette) == 0 {
			// Cannot happen on a correct run: at most deg colors can be
			// struck from a (deg+1)-palette.
			return nil, true
		}
		idx := 0
		if p.cfg.Candidate != nil {
			idx = p.cfg.Candidate(p.ctx.Index, phase, len(p.palette))
			idx = ((idx % len(p.palette)) + len(p.palette)) % len(p.palette)
		} else {
			idx = p.ctx.Rand.Intn(len(p.palette))
		}
		p.candidate = p.palette[idx]
		return p.broadcastActive(p.ctx.Uints(msgCandidate, uint64(p.candidate))), false
	default:
		keep := true
		for port, m := range inbox {
			if m == nil || !p.active[port] {
				continue
			}
			var vals [2]uint64
			if !sim.DecodeUintsInto(m, vals[:]) || vals[0] != msgCandidate {
				continue
			}
			if int(vals[1]) == p.candidate && p.ctx.NeighborIDs[port] > p.ctx.ID {
				keep = false
			}
		}
		if keep {
			p.color = p.candidate
			p.decided = true
			return p.broadcastActive(p.ctx.Uints(msgFinal, uint64(p.color))), true
		}
		return nil, false
	}
}

// Output reports the final color (-1 when undecided).
func (p *program) Output() int { return p.color }

// Randomized runs the trial-color algorithm in the CONGEST model. Every
// node ends with a color in [0, deg(v)+1) ⊆ [0, Δ+1); it errors if any node
// exhausted MaxPhases.
func Randomized(g *graph.Graph, src randomness.Source, ids []uint64, cfg Config) ([]int, *sim.Result[int], error) {
	simCfg := sim.Config{
		Graph:          g,
		IDs:            ids,
		Source:         src,
		MaxMessageBits: sim.CongestBits(g.N()),
		Adversary:      cfg.Adversary,
	}
	cfg.Exec.Apply(&simCfg)
	res, err := sim.Execute(simCfg, func(int) sim.NodeProgram[int] {
		return &program{cfg: cfg}
	})
	if err != nil {
		return nil, nil, err
	}
	undecided := 0
	for _, c := range res.Outputs {
		if c < 0 {
			undecided++
		}
	}
	if undecided > 0 {
		return res.Outputs, res, fmt.Errorf("coloring: %d nodes undecided after all phases", undecided)
	}
	return res.Outputs, res, nil
}

// Greedy colors nodes in the given order (nil = index order) with the
// smallest color unused by already-colored neighbors — the locality-1
// SLOCAL reference.
func Greedy(g *graph.Graph, order []int) []int {
	n := g.N()
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	for _, v := range order {
		used := map[int]bool{}
		for _, w := range g.Neighbors(v) {
			if colors[w] >= 0 {
				used[colors[w]] = true
			}
		}
		for c := 0; ; c++ {
			if !used[c] {
				colors[v] = c
				break
			}
		}
	}
	return colors
}
