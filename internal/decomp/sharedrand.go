package decomp

import (
	"fmt"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// SharedRandConfig parameterizes the Theorem 3.6 construction.
type SharedRandConfig struct {
	// C is the radius constant c of the paper (base radius Ri = (p−i)·c·lg,
	// radius cap c·lg). The paper takes c >= 10; the default 4 keeps
	// experiment sizes tractable and the validity checks still pass — the
	// constant only affects the failure probability, which the experiments
	// measure directly. 0 means 4.
	C int
	// K is the independence parameter of the two k-wise families derived
	// from the shared seed (the paper uses Θ(log² n)). 0 means ⌈log₂ n⌉².
	K int
	// MaxPhases caps the phase loop; 0 means 8·⌈log₂ n⌉ + 8.
	MaxPhases int
}

// Measured is the engine accounting of a construction's ball-carving run.
type Measured struct {
	Rounds         int
	Messages       int64
	MaxMessageBits int
}

// SharedRandResult carries the Theorem 3.6 decomposition and accounting.
type SharedRandResult struct {
	Decomposition *Decomposition
	Phases        int
	// SeedBitsUsed is the number of shared seed bits consumed to build the
	// two k-wise families (the construction's entire randomness budget).
	SeedBitsUsed int
	// AnalyticRounds is the CONGEST round budget every node follows:
	// Phases phases of p epochs, epoch i lasting Ri + cap + 2 rounds of
	// bounded top-2 flooding. The measured Rounds stay within it.
	AnalyticRounds int
	Measured
}

// carving is the shape of the Theorem 3.6 ball carving on n nodes. A phase
// has p epochs; epoch i = 1..p has base radius Ri = (p−i)·c·lg, radius draws
// X_u ∈ [1, cap] with cap = c·lg, and sampling probability min(1, 2^i·lg/n),
// which reaches 1 in epoch p, so every phase decides every active node
// (join or set aside).
type carving struct {
	n, lg, p, cap, maxPhases int
}

func newCarving(n int, cfg SharedRandConfig) carving {
	lg := log2Ceil(n) + 1
	c := cfg.C
	if c == 0 {
		c = 4
	}
	maxPhases := cfg.MaxPhases
	if maxPhases == 0 {
		maxPhases = 8*lg + 8
	}
	p := 1
	for (1<<p)*lg < n {
		p++
	}
	return carving{n: n, lg: lg, p: p, cap: c * lg, maxPhases: maxPhases}
}

// kwiseField is the degree of the field the carving's k-wise families work
// over; a point packs (node, phase, epoch, flip).
const kwiseField = 32

// kwiseCenters returns the carving's supplier over k-wise families, in which
// fams(v) names node v's sampling and radius families: v is a center in
// (phase, epoch) with the sampling probability, and its radius is one plus
// the number of leading 1-bits of its radius family, capped at cap.
func (c carving) kwiseCenters(fams func(v int) (sample, radius *randomness.KWise)) (func(v, phase, epoch int) (int, bool), error) {
	if top := c.point(c.n-1, c.maxPhases, c.p, c.cap); top >= 1<<kwiseField {
		return nil, fmt.Errorf("decomp: point space %d overflows GF(2^%d); reduce n or enlarge the field", top, kwiseField)
	}
	return func(v, phase, epoch int) (int, bool) {
		sample, radius := fams(v)
		if prob := float64(int64(1)<<uint(epoch)) * float64(c.lg) / float64(c.n); prob < 1 {
			const t = 20
			numer := uint64(prob * float64(uint64(1)<<t))
			if !sample.Bernoulli(c.point(v, phase, epoch, 0), numer, t) {
				return 0, false
			}
		}
		for j := 0; j < c.cap; j++ {
			if radius.Bit(c.point(v, phase, epoch, j)) == 0 {
				return j + 1, true
			}
		}
		return c.cap, true
	}, nil
}

// carve runs the carving on g through the engine, on one worker and with no
// private randomness: center(v, phase, epoch) supplies node v's draw, epochs
// counted from 1. Clusters are labelled densely by (center, phase), since a
// center set aside in one phase may be a center again in a later one. The
// result's SeedBitsUsed is left to the caller.
func (c carving) carve(g *graph.Graph, center func(v, phase, epoch int) (int, bool)) (*SharedRandResult, error) {
	base := make([]int, c.p)
	for i := range base {
		base[i] = (c.p - 1 - i) * c.cap
	}
	s := newSchedule(base, c.cap, c.maxPhases, false, func(ctx *sim.NodeCtx, phase, epoch int) (int, bool) {
		return center(ctx.Index, phase, epoch+1)
	})
	d, res, err := s.run(sim.Config{
		Graph:          g,
		MaxMessageBits: sim.CongestBits(g.N()),
		MaxRounds:      c.maxPhases*s.phaseLen + 1,
	})
	if err != nil {
		return nil, err
	}
	phases := 0
	labels := map[[2]int]int{}
	for v := range d.Cluster {
		phases = max(phases, d.Color[v]+1)
		key := [2]int{d.Cluster[v], d.Color[v]}
		if _, ok := labels[key]; !ok {
			labels[key] = len(labels)
		}
		d.Cluster[v] = labels[key]
	}
	return &SharedRandResult{Decomposition: d, Phases: phases, AnalyticRounds: phases * s.phaseLen,
		Measured: Measured{res.Rounds, res.Messages, res.MaxMessageBits}}, nil
}

// SharedRand implements Theorem 3.6: an (O(log n), O(log² n)) strong-
// diameter network decomposition computed with only poly(log n) bits of
// globally shared randomness and no private randomness, in poly(log n)
// CONGEST rounds. Center sampling and radius draws come from two
// Θ(log² n)-wise independent families expanded deterministically from the
// shared seed, exactly as the paper's randomness argument prescribes. The
// phase/epoch ball carving runs on the engine as the bounded top-2 flooding
// program Elkin–Neiman uses, so its rounds, messages and largest message
// are measured; AnalyticRounds is the schedule's budget.
func SharedRand(g *graph.Graph, shared *randomness.Shared, cfg SharedRandConfig) (*SharedRandResult, error) {
	n := g.N()
	if n == 0 {
		return &SharedRandResult{Decomposition: &Decomposition{}}, nil
	}
	c := newCarving(n, cfg)
	center, seedBits, err := sharedCenters(c, shared, cfg.K)
	if err != nil {
		return nil, err
	}
	res, err := c.carve(g, center)
	if err != nil {
		return nil, err
	}
	res.SeedBitsUsed = seedBits
	return res, nil
}

// sharedCenters builds the Theorem 3.6 supplier: two k-wise families (k = 0
// means lg²) expanded from the shared seed and used by every node. It also
// returns the seed bits the families consumed.
func sharedCenters(c carving, shared *randomness.Shared, k int) (func(v, phase, epoch int) (int, bool), int, error) {
	if k == 0 {
		k = c.lg * c.lg
	}
	famSample, off, err := shared.KWiseFamily(k, kwiseField, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("decomp: sampling family: %w", err)
	}
	famRadius, off, err := shared.KWiseFamily(k, kwiseField, off)
	if err != nil {
		return nil, 0, fmt.Errorf("decomp: radius family: %w", err)
	}
	center, err := c.kwiseCenters(func(int) (*randomness.KWise, *randomness.KWise) { return famSample, famRadius })
	return center, off, err
}

// point injectively encodes (node, phase, epoch, flip) as a field point.
func (c carving) point(v, phase, epoch, flip int) uint64 {
	return ((uint64(v)*uint64(c.maxPhases+1)+uint64(phase))*uint64(c.p+1)+uint64(epoch))*uint64(c.cap+1) + uint64(flip)
}
