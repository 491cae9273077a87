package check

import (
	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/sim"
)

// This file contains the distributed checkers of Definition 2.2: constant-
// or d(n)-round CONGEST node programs where all nodes answer "yes" iff the
// proposed solution is valid. They exist to demonstrate that the problems
// studied are locally checkable in the paper's sense — the engine runs
// them, and the tests confirm the all-yes ⟺ valid equivalence, including
// on corrupted solutions.

// misChecker is the 1-round checker for MIS: exchange membership; a member
// with a member neighbor says no; a non-member with no member neighbor
// says no. The exchanged membership indicator is a single bit, so the
// checker declares PayloadBits() = 1 and the engines run it over packed
// bit planes; the neighbor scan then ORs whole inbox words — a set value
// bit anywhere means some neighbor is in the set.
type misChecker struct {
	ctx    *sim.NodeCtx
	inMIS  bool
	answer bool
}

// PayloadBits declares the 1-bit payload width that lets the engines pack
// this checker's message planes into bitmaps.
func (c *misChecker) PayloadBits() int { return 1 }

func (c *misChecker) Init(ctx *sim.NodeCtx) { c.ctx = ctx; c.answer = true }

func (c *misChecker) Round(r int, _ []sim.Message) ([]sim.Message, bool) {
	if r == 0 {
		bit := uint64(0)
		if c.inMIS {
			bit = 1
		}
		return c.ctx.BroadcastBit(bit), false
	}
	var in uint64
	for j := 0; j < c.ctx.BitWords(); j++ {
		pres, val := c.ctx.InBitWord(j)
		in |= pres & val
	}
	neighborIn := in != 0
	switch {
	case c.inMIS && neighborIn:
		c.answer = false // independence violated
	case !c.inMIS && !neighborIn:
		c.answer = false // maximality violated
	}
	return nil, true
}

func (c *misChecker) Output() bool { return c.answer }

// Options configures the verification network a distributed checker runs
// on. The zero value is the fault-free default every plain checker entry
// point uses.
type Options struct {
	// Adversary, when non-nil, injects its faults into the checker's own
	// CONGEST execution — the checker becomes the system under test: a
	// valid solution checked over a lossy network may be rejected (a
	// dropped membership bit looks like a maximality violation), but a
	// checker must never be tricked into accepting an invalid solution,
	// because every per-node "no" is computed from locally held inputs.
	// The experiments' E12 family measures exactly this asymmetry.
	Adversary *sim.Adversary
	// Exec carries the per-run execution knobs (scheduler, workers, engine
	// pool, telemetry, progress hook) of the checker's execution.
	Exec sim.ExecOptions
}

func (o Options) config(g *graph.Graph) sim.Config {
	cfg := sim.Config{
		Graph:          g,
		MaxMessageBits: sim.CongestBits(g.N()),
		Adversary:      o.Adversary,
	}
	o.Exec.Apply(&cfg)
	return cfg
}

// MISDistributed runs the 1-round distributed MIS checker and reports
// whether all nodes answered yes, plus the per-node answers.
func MISDistributed(g *graph.Graph, in []bool) (bool, []bool, error) {
	return MISDistributedOpts(g, in, Options{})
}

// MISDistributedOpts is MISDistributed on a configured network.
func MISDistributedOpts(g *graph.Graph, in []bool, opt Options) (bool, []bool, error) {
	res, err := sim.Execute(opt.config(g), func(v int) sim.NodeProgram[bool] {
		return &misChecker{inMIS: in[v]}
	})
	if err != nil {
		return false, nil, err
	}
	all := true
	for _, yes := range res.Outputs {
		all = all && yes
	}
	return all, res.Outputs, nil
}

// coloringChecker is the 1-round checker for proper coloring.
type coloringChecker struct {
	ctx       *sim.NodeCtx
	color     int
	maxColors int
	answer    bool
}

func (c *coloringChecker) Init(ctx *sim.NodeCtx) { c.ctx = ctx; c.answer = true }

func (c *coloringChecker) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	if r == 0 {
		if c.color < 0 || (c.maxColors > 0 && c.color >= c.maxColors) {
			c.answer = false
		}
		// Shift by one to keep -1 encodable.
		return c.ctx.Broadcast(c.ctx.Uints(uint64(c.color + 1))), false
	}
	for _, m := range inbox {
		if m == nil {
			continue
		}
		x, _, ok := sim.ReadUint(m)
		if ok && int(x)-1 == c.color {
			c.answer = false
		}
	}
	return nil, true
}

func (c *coloringChecker) Output() bool { return c.answer }

// ColoringDistributedOpts runs the 1-round distributed coloring checker
// over the network opt configures.
func ColoringDistributedOpts(g *graph.Graph, colors []int, maxColors int, opt Options) (bool, []bool, error) {
	res, err := sim.Execute(opt.config(g), func(v int) sim.NodeProgram[bool] {
		return &coloringChecker{color: colors[v], maxColors: maxColors}
	})
	if err != nil {
		return false, nil, err
	}
	all := true
	for _, yes := range res.Outputs {
		all = all && yes
	}
	return all, res.Outputs, nil
}

// decompChecker is the d-round checker for a strong-diameter network
// decomposition with cluster radius at most d (from the minimum-ID member):
// round 0 exchanges (cluster, color) and flags same-color different-cluster
// neighbors; subsequent rounds min-flood the smallest ID within the
// cluster along intra-cluster edges; after d rounds every member must have
// heard the cluster's minimum, which certifies intra-cluster reachability
// within d hops (radius-d soundness; a valid decomposition of diameter d
// always passes, and a passing instance has diameter at most 2d — the
// usual factor-two slack of ball-based local checking).
type decompChecker struct {
	ctx     *sim.NodeCtx
	cluster int
	color   int
	rounds  int
	minSeen uint64
	answer  bool
}

func (c *decompChecker) Init(ctx *sim.NodeCtx) {
	c.ctx = ctx
	c.answer = true
	c.minSeen = ctx.ID
}

func (c *decompChecker) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	if c.cluster < 0 {
		c.answer = false
		return nil, true
	}
	// Every round: absorb (cluster, color, minID) from neighbors.
	for _, m := range inbox {
		if m == nil {
			continue
		}
		var vals [3]uint64
		if !sim.DecodeUintsInto(m, vals[:]) {
			continue
		}
		nbCluster, nbColor, nbMin := int(vals[0]), int(vals[1]), vals[2]
		if nbCluster != c.cluster {
			if nbColor == c.color {
				c.answer = false // adjacent same-color clusters
			}
			continue
		}
		if nbMin < c.minSeen {
			c.minSeen = nbMin
		}
	}
	if r >= c.rounds {
		// The flood is complete; nothing more can arrive in time.
		return nil, true
	}
	return c.ctx.Broadcast(c.ctx.Uints(uint64(c.cluster), uint64(c.color), c.minSeen)), false
}

func (c *decompChecker) Output() uint64 { return c.minSeen }

// DecompositionDistributed runs the radius-d distributed decomposition
// checker: it returns allYes = true iff no node saw a same-color foreign
// neighbor and, within every cluster, all members converged to one minimum
// ID within d rounds (certifying strong radius ≤ d from that member).
func DecompositionDistributed(g *graph.Graph, d *decomp.Decomposition, radius int) (bool, error) {
	return DecompositionDistributedOpts(g, d, radius, Options{})
}

// DecompositionDistributedOpts is DecompositionDistributed on a configured
// network.
func DecompositionDistributedOpts(g *graph.Graph, d *decomp.Decomposition, radius int, opt Options) (bool, error) {
	progs := make([]*decompChecker, g.N())
	res, err := sim.Execute(opt.config(g), func(v int) sim.NodeProgram[uint64] {
		p := &decompChecker{cluster: d.Cluster[v], color: d.Color[v], rounds: radius}
		progs[v] = p
		return p
	})
	if err != nil {
		return false, err
	}
	// Conjunction semantics: per-cluster agreement on the minimum plus the
	// local color checks.
	minOf := map[int]uint64{}
	for v := 0; v < g.N(); v++ {
		if !progs[v].answer {
			return false, nil
		}
		c := d.Cluster[v]
		if m, ok := minOf[c]; !ok || res.Outputs[v] < m {
			minOf[c] = res.Outputs[v]
		}
	}
	for v := 0; v < g.N(); v++ {
		if res.Outputs[v] != minOf[d.Cluster[v]] {
			return false, nil // some member did not hear the cluster min in time
		}
	}
	return true, nil
}
