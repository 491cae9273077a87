package decomp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	// pool, telemetry, progress hook); the zero value runs on one worker
	// with fresh buffers.
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
//
// The flood sends and decodes only what changed, in the varints sim.Uints
// writes:
//   - A node owns two payload halves of buf. It re-sends the half in flight
//     while its top-2 is unchanged and encodes a changed top-2 into the
//     other half, so it never rewrites a payload a receiver may still be
//     reading (see the NodeProgram retention rule).
//   - A receiver keeps, per port, the identity (&m[0]) of the payload it
//     merged there in the previous round, and skips a port whose payload is
//     that one again. Merging is idempotent and the top-2 only improves
//     between resets, so a skipped payload cannot change it. Every port is
//     decoded in a phase's first flood round and after a round the node
//     missed (stalled).
//
// The struct is 128 bytes, two cache lines; ElkinNeiman carves the programs,
// their payload halves and their port identities from per-run slabs.
type enProgram struct {
	cfg  *ENConfig // the run's resolved config, shared by every program
	ctx  *sim.NodeCtx
	top  [2]enEntry // best-first, distinct centers; the first ntop are set
	buf  []byte     // two payload halves of len(buf)/2 bytes each
	seen []*byte    // per port: the payload merged there last round, or nil
	last int        // the round of the previous Round call
	out  enOutput
	sent int32 // length of the payload in flight
	ntop uint8
	half uint8 // which half of buf is in flight
	// dirty is set when top has changed since it was last encoded.
	dirty bool
}

// enPayloadLen is the largest encoding of a top-2 list whose centers are at
// most maxID and whose values are at most radiusCap: the count, then two
// (center, value) pairs.
func enPayloadLen(maxID uint64, radiusCap int) int {
	varintLen := func(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
	return 1 + 2*(varintLen(maxID)+varintLen(uint64(max(radiusCap, 0))))
}

// newENSlab returns a factory that carves a run's programs from one slab,
// with their payload halves and port identities from two more and one
// resolved config shared by all; each half fits the run's largest encoding.
func newENSlab(g *graph.Graph, ids []uint64, cfg ENConfig) func(int) sim.NodeProgram[enOutput] {
	n := g.N()
	rc := cfg.withDefaults(n)
	maxID := uint64(max(n-1, 0)) // the default IDs are the node indices
	if len(ids) > 0 {
		maxID = slices.Max(ids)
	}
	size := 2 * enPayloadLen(maxID, rc.RadiusCap)
	off, _, _ := g.CSR()
	progs := make([]enProgram, n)
	bufs := make([]byte, size*n)
	seen := make([]*byte, off[n])
	return func(v int) sim.NodeProgram[enOutput] {
		progs[v] = enProgram{
			cfg:  &rc,
			buf:  bufs[size*v : size*(v+1) : size*(v+1)],
			seen: seen[off[v]:off[v+1]:off[v+1]],
		}
		return &progs[v]
	}
}

// Init resolves the config and sizes the buffers of a program built outside
// newENSlab; a slab-built program arrives with all three.
func (p *enProgram) Init(ctx *sim.NodeCtx) {
	p.ctx = ctx
	if p.cfg.MaxPhases == 0 || p.cfg.RadiusCap == 0 {
		c := p.cfg.withDefaults(ctx.N)
		p.cfg = &c
	}
	if p.buf == nil {
		p.buf = make([]byte, 2*enPayloadLen(math.MaxUint64, p.cfg.RadiusCap))
	}
	if p.seen == nil {
		p.seen = make([]*byte, ctx.Degree)
	}
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

// admits reports whether merging e could change the top-2 list: a negative
// measure never enters, nor does anything no better than a full list's
// runner-up (it is worse than both entries, whatever its center).
func (p *enProgram) admits(e enEntry) bool {
	return e.val >= 0 && (p.ntop < 2 || e.better(p.top[1]))
}

// merge folds an admitted candidate into the top-2 list, keeping centers
// distinct: the list is always the best two of the best entry per center
// over everything merged since the last reset, so merging is idempotent and
// order-independent.
func (p *enProgram) merge(e enEntry) {
	switch {
	case p.ntop > 0 && p.top[0].id == e.id:
		if !e.better(p.top[0]) {
			return
		}
		p.top[0] = e
	case p.ntop > 1 && p.top[1].id == e.id:
		p.top[1] = e
		if e.better(p.top[0]) {
			p.top[0], p.top[1] = e, p.top[0]
		}
	case p.ntop == 0:
		p.top[0], p.ntop = e, 1
	default: // a new center that beats the runner-up, if there is one
		if e.better(p.top[0]) {
			p.top[0], p.top[1] = e, p.top[0]
		} else {
			p.top[1] = e
		}
		p.ntop = 2
	}
	p.dirty = true
}

// absorb merges the candidates of one received payload: a count, then that
// many (center, measure) pairs, each measure one hop further from its
// center. A malformed payload contributes what decoded before the fault.
func (p *enProgram) absorb(m sim.Message) {
	k, i := uvarint(m, 0) // a malformed count reads as 0
	for ; k > 0; k-- {
		var id, val uint64
		if id, i = uvarint(m, i); i == 0 {
			return
		}
		if val, i = uvarint(m, i); i == 0 {
			return
		}
		if e := (enEntry{id: id, val: int(val) - 1}); p.admits(e) {
			p.merge(e)
		}
	}
}

// uvarint decodes the varint at m[i:], returning it and the index just past
// it, or 0 for the index when the input is malformed. The one- and two-byte
// forms, which carry every measure and the IDs below 2^14, are decoded
// inline.
func uvarint(m []byte, i int) (uint64, int) {
	if i < len(m) && m[i] < 0x80 {
		return uint64(m[i]), i + 1
	}
	if i+1 < len(m) && m[i+1] < 0x80 {
		return uint64(m[i]&0x7f) | uint64(m[i+1])<<7, i + 2
	}
	x, n := binary.Uvarint(m[i:])
	if n <= 0 {
		return 0, 0
	}
	return x, i + n
}

// broadcast sends the top-2 list on every port: the payload in flight again
// when the list is unchanged, else the list encoded into the other half of
// buf, with the same varints sim.Uints writes.
func (p *enProgram) broadcast() []sim.Message {
	h := len(p.buf) / 2
	if p.dirty {
		p.half ^= 1
		b := p.buf[int(p.half)*h : (int(p.half)+1)*h]
		b[0] = p.ntop
		n := 1
		for _, e := range p.top[:p.ntop] {
			n += binary.PutUvarint(b[n:], e.id)
			n += binary.PutUvarint(b[n:], uint64(e.val))
		}
		p.sent = int32(n)
		p.dirty = false
	}
	lo := int(p.half) * h
	return p.ctx.Broadcast(p.buf[lo : lo+int(p.sent) : lo+int(p.sent)])
}

func (p *enProgram) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	phase := r / (p.cfg.RadiusCap + 2)
	t := r % (p.cfg.RadiusCap + 2)
	missed := p.last != r-1
	p.last = r
	if phase >= p.cfg.MaxPhases {
		return nil, true // give up; Cluster stays -1
	}
	switch {
	case t == 0:
		p.ntop, p.dirty = 0, true
		if e := (enEntry{id: p.ctx.ID, val: p.drawRadius(phase)}); p.admits(e) {
			p.merge(e)
		}
		return p.broadcast(), false
	case t <= p.cfg.RadiusCap:
		decodeAll := t == 1 || missed
		for port, m := range inbox {
			if len(m) == 0 {
				p.seen[port] = nil
				continue
			}
			if id := &m[0]; decodeAll || p.seen[port] != id {
				p.seen[port] = id
				p.absorb(m)
			}
		}
		return p.broadcast(), false
	default: // t == RadiusCap+1: decide
		m1 := p.top[0].val
		m2 := 0
		if p.ntop > 1 {
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
	res, err := sim.Execute(simCfg, newENSlab(g, ids, cfg))
	if err != nil {
		return nil, nil, err
	}
	return enDecomposition(res)
}

// enDecomposition unpacks the per-node outputs of an EN run.
func enDecomposition(res *sim.Result[enOutput]) (*Decomposition, *sim.Result[enOutput], error) {
	n := len(res.Outputs)
	d := &Decomposition{
		Cluster: make([]int, n),
		Color:   make([]int, n),
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
