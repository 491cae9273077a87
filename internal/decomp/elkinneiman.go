package decomp

import (
	"fmt"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// ENConfig parameterizes the Elkin–Neiman decomposition program.
type ENConfig struct {
	// MaxPhases bounds the number of color phases; 0 means 12·⌈log₂ n⌉ + 8,
	// mirroring the paper's 10·log n with margin. A node still unclustered
	// after MaxPhases reports failure (Cluster = -1), which the runner
	// surfaces as ErrUnclustered.
	MaxPhases int
	// RadiusCap caps the geometric radius draw; 0 means 2·⌈log₂ n⌉ + 4, so
	// the cap is exceeded with probability under 1/(16n²) per draw, the
	// "w.h.p. at most O(log n) coins" budget of Lemma 3.3.
	RadiusCap int
	// Radius, when non-nil, overrides the private-coin geometric draw with
	// an arbitrary radius function of (node index, phase). The k-wise
	// independence experiments inject radii derived from a KWise family
	// here; the default draws from the node's accounted private stream.
	Radius func(v, phase int) int
	// Adversary, when non-nil, injects its faults into the execution;
	// attaching one never changes the radius coins the nodes draw.
	Adversary *sim.Adversary
	// Exec carries the per-run execution knobs (scheduler, workers, engine
	// pool, telemetry, progress hook); the zero value defers to the
	// package-wide defaults. Multi-tenant hosts set it per run.
	Exec sim.ExecOptions
}

func (c *ENConfig) withDefaults(n int) ENConfig {
	out := *c
	lg := log2Ceil(n)
	if out.MaxPhases == 0 {
		out.MaxPhases = 12*lg + 8
	}
	if out.RadiusCap == 0 {
		out.RadiusCap = 2*lg + 4
	}
	return out
}

// log2Ceil returns ⌈log₂ n⌉ for n >= 1 (0 for n <= 1).
func log2Ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// ErrUnclustered reports nodes left unclustered after all phases.
type ErrUnclustered struct{ Count int }

func (e *ErrUnclustered) Error() string {
	return fmt.Sprintf("decomp: %d nodes unclustered after all phases", e.Count)
}

// enOutput is the per-node result of the EN program.
type enOutput struct {
	Cluster int // center ID of the joined cluster, -1 on failure
	Color   int // phase in which the node was clustered, -1 on failure
}

// enEntry is a (center, measure) candidate as carried in messages.
type enEntry struct {
	id  uint64
	val int
}

// better reports whether a ranks above b: larger measure first, then lower
// center ID — the deterministic tie-break that keeps the construction's
// cluster-connectivity proof intact with integer radii.
func (a enEntry) better(b enEntry) bool {
	if a.val != b.val {
		return a.val > b.val
	}
	return a.id < b.id
}

// enProgram runs the Elkin–Neiman construction at one node: in each phase
// every still-alive node draws a geometric radius r_v, the measure
// r_v − dist(v, u) is top-2 flooded for RadiusCap rounds (each message
// carries at most two (center, value) pairs — the CONGEST-sized "top two
// cluster names and radii" the paper's Lemma 3.3 describes), and the node
// joins the maximising center iff the top measure beats the runner-up by
// more than 1. Clustered nodes halt, which removes them from later phases
// exactly as the construction removes colored clusters from the graph.
type enProgram struct {
	cfg      ENConfig
	ctx      *sim.NodeCtx
	phaseLen int
	top      []enEntry // at most 2, distinct centers, sorted best-first
	scratch  [5]uint64 // encode buffer: count + two (center, value) pairs
	out      enOutput
}

func (p *enProgram) Init(ctx *sim.NodeCtx) {
	p.ctx = ctx
	p.cfg = p.cfg.withDefaults(ctx.N)
	p.phaseLen = p.cfg.RadiusCap + 2
	p.out = enOutput{Cluster: -1, Color: -1}
}

func (p *enProgram) drawRadius(phase int) int {
	if p.cfg.Radius != nil {
		r := p.cfg.Radius(p.ctx.Index, phase)
		if r < 1 {
			r = 1
		}
		if r > p.cfg.RadiusCap {
			r = p.cfg.RadiusCap
		}
		return r
	}
	r, _ := p.ctx.Rand.Geometric(p.cfg.RadiusCap)
	return r
}

// merge inserts a candidate into the top-2 list, keeping centers distinct.
func (p *enProgram) merge(e enEntry) {
	if e.val < 0 {
		return
	}
	for i, cur := range p.top {
		if cur.id == e.id {
			if e.better(cur) {
				p.top[i] = e
				p.sortTop()
			}
			return
		}
	}
	p.top = append(p.top, e)
	p.sortTop()
	if len(p.top) > 2 {
		p.top = p.top[:2]
	}
}

func (p *enProgram) sortTop() {
	for i := 1; i < len(p.top); i++ {
		for j := i; j > 0 && p.top[j].better(p.top[j-1]); j-- {
			p.top[j], p.top[j-1] = p.top[j-1], p.top[j]
		}
	}
}

// broadcast encodes the top-2 candidate list into the program's scratch
// buffer, carves the payload from the engine's per-round arena and fills the
// engine-owned outbox — the steady-state round loop allocates nothing.
func (p *enProgram) broadcast() []sim.Message {
	buf := append(p.scratch[:0], uint64(len(p.top)))
	for _, e := range p.top {
		buf = append(buf, e.id, uint64(e.val))
	}
	return p.ctx.Broadcast(p.ctx.Uints(buf...))
}

func (p *enProgram) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	phase := r / p.phaseLen
	t := r % p.phaseLen
	if phase >= p.cfg.MaxPhases {
		return nil, true // give up; Cluster stays -1
	}
	switch {
	case t == 0:
		radius := p.drawRadius(phase)
		p.top = p.top[:0]
		p.merge(enEntry{id: p.ctx.ID, val: radius})
		return p.broadcast(), false
	case t <= p.cfg.RadiusCap:
		for _, m := range inbox {
			if m == nil {
				continue
			}
			k, rest, ok := sim.ReadUint(m)
			if !ok {
				continue
			}
			for i := uint64(0); i < k; i++ {
				var id, val uint64
				if id, rest, ok = sim.ReadUint(rest); !ok {
					break
				}
				if val, rest, ok = sim.ReadUint(rest); !ok {
					break
				}
				p.merge(enEntry{id: id, val: int(val) - 1})
			}
		}
		return p.broadcast(), false
	default: // t == RadiusCap+1: decide
		m1 := p.top[0].val
		m2 := 0
		if len(p.top) > 1 {
			m2 = p.top[1].val
		}
		if m1-m2 > 1 {
			p.out = enOutput{Cluster: int(p.top[0].id), Color: phase}
			return nil, true
		}
		return nil, false // set aside; retry next phase
	}
}

func (p *enProgram) Output() enOutput { return p.out }

// ElkinNeiman runs the randomized (O(log n), O(log n)) strong-diameter
// network decomposition of [EN16] on g under the given randomness source,
// in the CONGEST model (messages carry two (center, radius) candidates,
// O(log n) bits). It returns the decomposition and the engine accounting.
//
// With src = randomness.NewFull this is the standard baseline of Section 2;
// injecting cfg.Radius reproduces the limited-independence variants.
func ElkinNeiman(g *graph.Graph, src randomness.Source, ids []uint64, cfg ENConfig) (*Decomposition, *sim.Result[enOutput], error) {
	simCfg := sim.Config{
		Graph:          g,
		IDs:            ids,
		Source:         src,
		MaxMessageBits: sim.CongestBits(g.N()),
		Adversary:      cfg.Adversary,
	}
	cfg.Exec.Apply(&simCfg)
	res, err := sim.Execute(simCfg, func(int) sim.NodeProgram[enOutput] {
		return &enProgram{cfg: cfg}
	})
	if err != nil {
		return nil, nil, err
	}
	d := &Decomposition{
		Cluster: make([]int, g.N()),
		Color:   make([]int, g.N()),
	}
	failed := 0
	for v, out := range res.Outputs {
		d.Cluster[v] = out.Cluster
		d.Color[v] = out.Color
		if out.Cluster < 0 {
			failed++
		}
	}
	if failed > 0 {
		return d, res, &ErrUnclustered{Count: failed}
	}
	return d, res, nil
}

// ElkinNeimanReference is a centralized re-implementation of the same
// construction used to cross-validate the message-passing program: given
// the exact radius draws per (node, phase), both must produce identical
// clusterings. It performs exact ball computations instead of flooding.
func ElkinNeimanReference(g *graph.Graph, ids []uint64, maxPhases int, radius func(v, phase int) int) *Decomposition {
	n := g.N()
	d := &Decomposition{Cluster: make([]int, n), Color: make([]int, n)}
	for v := range d.Cluster {
		d.Cluster[v] = -1
		d.Color[v] = -1
	}
	alive := make([]bool, n)
	aliveCount := n
	for v := range alive {
		alive[v] = true
	}
	for phase := 0; phase < maxPhases && aliveCount > 0; phase++ {
		// Exact measures on the subgraph induced by alive nodes.
		type cand struct {
			id  uint64
			val int
		}
		top := make([][]cand, n) // top-2 per alive node
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			rv := radius(v, phase)
			// BFS within the alive subgraph, rv hops.
			dist := map[int]int{v: 0}
			queue := []int{v}
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				if dist[u] == rv {
					continue
				}
				for _, w32 := range g.Neighbors(u) {
					w := int(w32)
					if !alive[w] {
						continue
					}
					if _, ok := dist[w]; !ok {
						dist[w] = dist[u] + 1
						queue = append(queue, w)
					}
				}
			}
			for u, du := range dist {
				val := rv - du
				if val < 0 {
					continue
				}
				c := cand{id: ids[v], val: val}
				lst := append(top[u], c)
				// Keep top-2 by (val desc, id asc).
				for i := 1; i < len(lst); i++ {
					for j := i; j > 0; j-- {
						a, b := lst[j], lst[j-1]
						if a.val > b.val || (a.val == b.val && a.id < b.id) {
							lst[j], lst[j-1] = lst[j-1], lst[j]
						}
					}
				}
				if len(lst) > 2 {
					lst = lst[:2]
				}
				top[u] = lst
			}
		}
		for u := 0; u < n; u++ {
			if !alive[u] || len(top[u]) == 0 {
				continue
			}
			m1 := top[u][0].val
			m2 := 0
			if len(top[u]) > 1 {
				m2 = top[u][1].val
			}
			if m1-m2 > 1 {
				d.Cluster[u] = int(top[u][0].id)
				d.Color[u] = phase
			}
		}
		for u := 0; u < n; u++ {
			if alive[u] && d.Cluster[u] >= 0 {
				alive[u] = false
				aliveCount--
			}
		}
	}
	return d
}
