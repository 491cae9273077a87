package mis

import (
	"fmt"
	"math"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// LubyBitConfig parameterizes the coin-flip Luby program (LubyBit).
type LubyBitConfig struct {
	// MaxPhases caps execution; 0 means 32·⌈log₂ n⌉ + 32. The coin-flip
	// variant with static ID tie-breaking needs O(log n) phases in
	// expectation on the bounded-average-degree families under study; the
	// cap is generous and undecided nodes surface as an error.
	MaxPhases int
	// Mark, when non-nil, overrides the private Bernoulli(≈1/2d) coin —
	// deterministic tests and the zero-alloc pins inject outcomes here.
	Mark func(v, phase int) bool
	// Adversary, when non-nil, injects its faults into the execution,
	// drawing only from the adversary stream of its SimulationKey.
	Adversary *sim.Adversary
	// Unpacked opts the run out of packed bit planes (A/B lever; forwarded
	// to sim.Config.Unpacked). Results are identical either way.
	Unpacked bool
	// Exec carries the per-run execution knobs (scheduler, workers, engine
	// pool, telemetry, progress hook); the zero value runs on one worker
	// with fresh buffers.
	Exec sim.ExecOptions
}

// maxPhases resolves MaxPhases for an n-node network.
func (c *LubyBitConfig) maxPhases(n int) int {
	if c.MaxPhases != 0 {
		return c.MaxPhases
	}
	lg := 0
	for 1<<lg < n {
		lg++
	}
	return 32*lg + 32
}

// lubyBitProgram is one node of the coin-flip variant of Luby's algorithm
// [Lub86, algorithm B shape], restated as a pure 1-bit protocol: every
// message on the wire is a single presence bit, so it declares PayloadBits()
// = 1 and the engines run it over packed bit planes, word-parallel end to
// end. Each phase takes three rounds, and a received bit's *meaning* is
// fixed by its position in the phase (no message-type field is needed):
//
//	t=0: arrivals are OUT announcements from nodes that decided at the end
//	     of the previous phase — drop those ports from the active mask.
//	     Then flip a Bernoulli(1/2^k) coin, k = ⌈log₂(2·max(deg,1))⌉ (≈
//	     1/(2d)); marked nodes broadcast the mark to active neighbors.
//	t=1: arrivals are neighbors' marks. A marked node with no marked
//	     neighbor of larger ID joins the MIS, as does any node whose active
//	     neighborhood has emptied; joiners announce IN to active neighbors
//	     and halt. Ties break on the static IDs (KT1), so two adjacent
//	     marked nodes never both join.
//	t=2: arrivals are IN announcements. A node that hears one goes OUT,
//	     announces OUT to its remaining active neighbors, and halts.
//
// All three decision scans are branch-free word operations over the
// InBitWord accessor: active-mask updates AND-NOT whole words, the join test
// ANDs the arrival words against a precomputed stronger-neighbor mask, and
// the IN test ORs the arrival words — 64 ports per operation.
//
// The struct is 64 bytes, one cache line in a slab (NewBitProgramSlab), so a
// node-step touches one line of program state.
type lubyBitProgram struct {
	cfg *LubyBitConfig // shared by every node of the run
	ctx *sim.NodeCtx
	// The port masks: the active mask has bit p set while the neighbor on
	// port p is still undecided, the stronger mask while that neighbor's ID
	// exceeds ours. Up to degree 64 they are inline[0] and inline[1] and
	// masks is nil, so Init allocates nothing; above it masks holds the
	// active words, then the stronger words (see portMasks).
	masks     []uint64
	inline    [2]uint64
	maxPhases int32
	markBits  uint8 // the coin is Bits(markBits) == 0
	marked    bool
	inMIS     bool
	decided   bool
}

// PayloadBits declares the 1-bit payload width that lets the engines pack
// this program's message planes into bitmaps.
func (p *lubyBitProgram) PayloadBits() int { return 1 }

func (p *lubyBitProgram) Init(ctx *sim.NodeCtx) {
	p.ctx = ctx
	p.maxPhases = int32(min(p.cfg.maxPhases(ctx.N), math.MaxInt32))
	p.inline = [2]uint64{}
	if nw := ctx.BitWords(); nw > 1 {
		p.masks = make([]uint64, 2*nw)
	}
	active, stronger := p.portMasks()
	for port := 0; port < ctx.Degree; port++ {
		active[port>>6] |= 1 << (uint(port) & 63)
		if ctx.NeighborIDs[port] > ctx.ID {
			stronger[port>>6] |= 1 << (uint(port) & 63)
		}
	}
	d := max(ctx.Degree, 1)
	k := uint8(1)
	for 1<<k < 2*d {
		k++
	}
	p.markBits = k
}

// portMasks returns the active and the stronger port masks, ⌈Degree/64⌉
// words each (one word, zero past the degree, for degree ≤ 64).
func (p *lubyBitProgram) portMasks() (active, stronger []uint64) {
	if p.masks == nil {
		return p.inline[:1], p.inline[1:]
	}
	nw := len(p.masks) >> 1
	return p.masks[:nw:nw], p.masks[nw:]
}

func (p *lubyBitProgram) drawMark(phase int) bool {
	if p.cfg.Mark != nil {
		return p.cfg.Mark(p.ctx.Index, phase)
	}
	return p.ctx.Rand.Bits(int(p.markBits)) == 0
}

func (p *lubyBitProgram) Round(r int, _ []sim.Message) ([]sim.Message, bool) {
	phase := r / 3
	if phase >= int(p.maxPhases) {
		return nil, true // give up undecided; the wrapper flags it
	}
	active, stronger := p.portMasks()
	switch r % 3 {
	case 0:
		// OUT announcements from the previous phase's t=2 deciders.
		for j := range active {
			pres, _ := p.ctx.InBitWord(j)
			active[j] &^= pres
		}
		p.marked = p.drawMark(phase)
		if p.marked {
			return p.ctx.BroadcastBitMask(1, active), false
		}
		return nil, false
	case 1:
		// Neighbors' marks. Win = marked with no stronger marked neighbor;
		// a node whose active neighborhood emptied (every neighbor went
		// OUT) joins unconditionally — maximality requires it.
		var conflict, activeAny uint64
		for j := range active {
			pres, _ := p.ctx.InBitWord(j)
			conflict |= pres & stronger[j]
			activeAny |= active[j]
		}
		if (p.marked && conflict == 0) || activeAny == 0 {
			p.inMIS = true
			p.decided = true
			return p.ctx.BroadcastBitMask(1, active), true
		}
		return nil, false
	default:
		// IN announcements: every winner broadcast to all its active
		// neighbors, so hearing any bit means a neighbor joined.
		var joined uint64
		for j := range active {
			pres, _ := p.ctx.InBitWord(j)
			joined |= pres
		}
		if joined != 0 {
			p.decided = true
			return p.ctx.BroadcastBitMask(1, active), true
		}
		return nil, false
	}
}

// Output reports (inMIS, decided); undecided nodes signal failure.
func (p *lubyBitProgram) Output() LubyOutput {
	return LubyOutput{InMIS: p.inMIS, Decided: p.decided}
}

// NewBitProgram returns one node's coin-flip Luby state machine for direct
// use with the sim engines (LubyBit wraps it with validation and unpacking).
func NewBitProgram(cfg LubyBitConfig) sim.NodeProgram[LubyOutput] {
	return &lubyBitProgram{cfg: &cfg}
}

// NewBitProgramSlab returns a factory handing out coin-flip Luby programs
// carved from one pre-allocated contiguous slab — the million-node
// construction idiom (see README "Memory layout"): per-node program structs
// collapse into a single allocation, and the index-ordered round sweep walks
// them in prefetch-friendly order. All programs share one copy of cfg.
func NewBitProgramSlab(n int, cfg LubyBitConfig) func(int) sim.NodeProgram[LubyOutput] {
	slab := make([]lubyBitProgram, n)
	return func(v int) sim.NodeProgram[LubyOutput] {
		slab[v] = lubyBitProgram{cfg: &cfg}
		return &slab[v]
	}
}

// LubyBit runs the coin-flip (1-bit-message) variant of Luby's MIS algorithm
// on g in the CONGEST model and returns the indicator vector. Because every
// program declares a 1-bit payload width, the sequential and parallel engines
// execute it over packed bit planes; cfg.Unpacked opts out for A/B runs, with
// a byte-identical Result. Tie-breaking reads neighbor IDs, so the run uses
// the (default) KT1 knowledge. It errors if any node exhausted MaxPhases
// undecided.
func LubyBit(g *graph.Graph, src randomness.Source, ids []uint64, cfg LubyBitConfig) ([]bool, *sim.Result[LubyOutput], error) {
	simCfg := sim.Config{
		Graph:          g,
		IDs:            ids,
		Source:         src,
		MaxMessageBits: sim.CongestBits(g.N()),
		Adversary:      cfg.Adversary,
		Unpacked:       cfg.Unpacked,
	}
	cfg.Exec.Apply(&simCfg)
	res, err := sim.Execute(simCfg, NewBitProgramSlab(g.N(), cfg))
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
