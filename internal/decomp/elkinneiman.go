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
	// surfaces as ErrUnclustered. Negative is an error.
	MaxPhases int
	// RadiusCap caps the geometric radius draw; 0 means 2·⌈log₂ n⌉ + 4, so
	// the cap is exceeded with probability under 1/(16n²) per draw, the
	// "w.h.p. at most O(log n) coins" budget of Lemma 3.3. Negative is an
	// error.
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

// schedule is the round structure every node of a ball-carving run follows.
// A phase is len(base) epochs. Epoch e opens with a draw round: an alive node
// asks center whether it is a center and, if so, for its radius draw
// x ∈ [1, cap], and seeds its top-2 list with (ID, base[e] + x). It then
// floods top-2 lists for base[e] + cap rounds and decides in the round after
// that, so the epoch lasts base[e] + cap + 2 rounds. A node set aside in an
// epoch stays silent until the next phase, and a node whose list is empty
// sends nothing.
//
// Elkin–Neiman is the one-epoch schedule (base 0, cap RadiusCap) under which
// every alive node is a center; the Theorem 3.6 carving has p epochs of
// decreasing base radius (see carving).
type schedule struct {
	base      []int // per epoch: the base radius every center adds to its draw
	cap       int   // the largest radius draw
	maxPhases int
	phaseLen  int // Σ_e base[e] + cap + 2
	// counted leads every payload with the number of pairs that follow,
	// Elkin–Neiman's wire format; a carving payload is read to its end.
	counted bool
	// center supplies each node's draw: its radius and whether it is a
	// center in (phase, epoch), epochs counted from 0.
	center func(ctx *sim.NodeCtx, phase, epoch int) (int, bool)
}

func newSchedule(base []int, cap, maxPhases int, counted bool, center func(*sim.NodeCtx, int, int) (int, bool)) *schedule {
	s := &schedule{base: base, cap: cap, maxPhases: maxPhases, counted: counted, center: center}
	for _, b := range base {
		s.phaseLen += b + cap + 2
	}
	return s
}

// enSchedule resolves cfg on n nodes into Elkin–Neiman's schedule: every
// alive node is a center and draws its radius from cfg.Radius or, by
// default, from its private stream.
func enSchedule(cfg ENConfig, n int) (*schedule, error) {
	if cfg.RadiusCap < 0 || cfg.MaxPhases < 0 {
		return nil, fmt.Errorf("decomp: ENConfig needs RadiusCap >= 0 and MaxPhases >= 0, got %d and %d",
			cfg.RadiusCap, cfg.MaxPhases)
	}
	rc := cfg.withDefaults(n)
	radius, cap := rc.Radius, rc.RadiusCap
	return newSchedule([]int{0}, cap, rc.MaxPhases, true, func(ctx *sim.NodeCtx, phase, _ int) (int, bool) {
		if radius != nil {
			return radius(ctx.Index, phase), true
		}
		r, _ := ctx.Rand.Geometric(cap)
		return r, true
	}), nil
}

// run executes s on the engine and unpacks the per-node outputs.
func (s *schedule) run(cfg sim.Config) (*Decomposition, *sim.Result[enOutput], error) {
	res, err := sim.Execute(cfg, newCarveSlab(cfg.Graph, cfg.IDs, s))
	if err != nil {
		return nil, nil, err
	}
	return enDecomposition(res)
}

// enProgram runs a schedule's ball carving at one node. In each epoch the
// centers' measures base + x − dist(center, u) are top-2 flooded through
// the alive nodes (each message carries at most two (center, value) pairs —
// the CONGEST-sized "top two cluster names and radii" the paper's Lemma 3.3
// describes), and a node reached by some center joins the maximising center
// iff the top measure beats the runner-up by more than 1; otherwise it is
// set aside until the next phase. Clustered nodes halt, which removes them
// from later epochs exactly as the construction removes colored clusters
// from the graph.
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
//     decoded in an epoch's first flood round and after a round the node
//     missed (stalled).
//
// The struct is 128 bytes, two cache lines; a run carves the programs,
// their payload halves and their port identities from per-run slabs.
type enProgram struct {
	s    *schedule // the run's schedule, shared by every program
	ctx  *sim.NodeCtx
	top  [2]enEntry // best-first, distinct centers; the first ntop are set
	buf  []byte     // two payload halves of len(buf)/2 bytes each
	seen []*byte    // per port: the payload merged there last round, or nil
	out  enOutput
	last int32 // the round of the previous Round call
	sent int32 // length of the payload in flight
	// aside is one past the phase the node was last set aside in: it is
	// silent while the phase is below it.
	aside int32
	ntop  uint8
	half  uint8 // which half of buf is in flight
	// dirty is set when top has changed since it was last encoded.
	dirty bool
}

// enPayloadLen is the largest encoding of a top-2 list whose centers are at
// most maxID and whose values are at most maxVal: two (center, value)
// pairs, after a count when counted.
func enPayloadLen(maxID uint64, maxVal int, counted bool) int {
	varintLen := func(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
	n := 2 * (varintLen(maxID) + varintLen(uint64(max(maxVal, 0))))
	if counted {
		n++
	}
	return n
}

// newCarveSlab returns a factory that carves a run's programs from one slab,
// with their payload halves and port identities from two more and one
// schedule shared by all; each half fits the run's largest encoding.
func newCarveSlab(g *graph.Graph, ids []uint64, s *schedule) func(int) sim.NodeProgram[enOutput] {
	n := g.N()
	maxID := uint64(max(n-1, 0)) // the default IDs are the node indices
	if len(ids) > 0 {
		maxID = slices.Max(ids)
	}
	size := 2 * enPayloadLen(maxID, slices.Max(s.base)+s.cap, s.counted)
	off, _, _ := g.CSR()
	progs := make([]enProgram, n)
	bufs := make([]byte, size*n)
	seen := make([]*byte, off[n])
	return func(v int) sim.NodeProgram[enOutput] {
		progs[v] = enProgram{
			s:    s,
			buf:  bufs[size*v : size*(v+1) : size*(v+1)],
			seen: seen[off[v]:off[v+1]:off[v+1]],
		}
		return &progs[v]
	}
}

// Init sizes the buffers of a program built outside newCarveSlab; a
// slab-built program arrives with both.
func (p *enProgram) Init(ctx *sim.NodeCtx) {
	p.ctx = ctx
	if p.buf == nil {
		p.buf = make([]byte, 2*enPayloadLen(math.MaxUint64, slices.Max(p.s.base)+p.s.cap, p.s.counted))
	}
	if p.seen == nil {
		p.seen = make([]*byte, ctx.Degree)
	}
	p.out = enOutput{Cluster: -1, Color: -1}
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

// absorb merges the candidates of one received payload: (center, measure)
// pairs, each measure one hop further from its center, after their count
// when the schedule counts them. A malformed payload contributes what
// decoded before the fault.
func (p *enProgram) absorb(m sim.Message) {
	k, i := uint64(math.MaxUint64), 0 // uncounted: pairs to the end
	if p.s.counted {
		k, i = uvarint(m, 0) // a malformed count reads as 0
	}
	for ; k > 0 && i < len(m); k-- {
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

// broadcast sends a non-empty top-2 list on every port: the payload in
// flight again when the list is unchanged, else the list encoded into the
// other half of buf, with the same varints sim.Uints writes.
func (p *enProgram) broadcast() []sim.Message {
	if p.ntop == 0 {
		return nil
	}
	h := len(p.buf) / 2
	if p.dirty {
		p.half ^= 1
		b := p.buf[int(p.half)*h : (int(p.half)+1)*h]
		n := 0
		if p.s.counted {
			b[0], n = p.ntop, 1
		}
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
	s := p.s
	phase, t := r/s.phaseLen, r%s.phaseLen
	missed := p.last != int32(r-1)
	p.last = int32(r)
	if phase >= s.maxPhases {
		return nil, true // give up; Cluster stays -1
	}
	if phase < int(p.aside) {
		return nil, false // set aside: silent until the next phase
	}
	e := 0
	for t >= s.base[e]+s.cap+2 {
		t -= s.base[e] + s.cap + 2
		e++
	}
	switch {
	case t == 0:
		p.ntop, p.dirty = 0, true
		if x, ok := s.center(p.ctx, phase, e); ok {
			if c := (enEntry{id: p.ctx.ID, val: s.base[e] + min(max(x, 1), s.cap)}); p.admits(c) {
				p.merge(c)
			}
		}
		return p.broadcast(), false
	case t <= s.base[e]+s.cap:
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
	case p.ntop == 0: // decide, unreached: still alive for the next epoch
		return nil, false
	default: // decide
		m1 := p.top[0].val
		m2 := 0
		if p.ntop > 1 {
			m2 = p.top[1].val
		}
		if m1-m2 > 1 {
			p.out = enOutput{Cluster: int(p.top[0].id), Color: phase}
			return nil, true
		}
		p.aside = int32(phase) + 1
		return nil, false
	}
}

func (p *enProgram) Output() enOutput { return p.out }

// ElkinNeiman runs the randomized (O(log n), O(log n)) strong-diameter
// network decomposition of [EN16] on g under the given randomness source,
// in the CONGEST model (messages carry two (center, radius) candidates,
// O(log n) bits). It returns the decomposition and the engine accounting,
// or an error for a negative RadiusCap or MaxPhases.
//
// With src = randomness.NewFull this is the standard baseline of Section 2;
// injecting cfg.Radius reproduces the limited-independence variants.
func ElkinNeiman(g *graph.Graph, src randomness.Source, ids []uint64, cfg ENConfig) (*Decomposition, *sim.Result[enOutput], error) {
	s, err := enSchedule(cfg, g.N())
	if err != nil {
		return nil, nil, err
	}
	simCfg := sim.Config{
		Graph:          g,
		IDs:            ids,
		Source:         src,
		MaxMessageBits: sim.CongestBits(g.N()),
		Adversary:      cfg.Adversary,
	}
	cfg.Exec.Apply(&simCfg)
	return s.run(simCfg)
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
