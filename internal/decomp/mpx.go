package decomp

import (
	"fmt"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// This file implements the Miller–Peng–Xu random-shift partition [MPX13]
// that the Elkin–Neiman construction builds on (the paper's Lemma 3.3
// cites both). MPX is the single-pass primitive: every node draws a random
// shift δ_v and node u joins the cluster of the v minimizing
// dist(u, v) − δ_v. The result is a *partition* into low-diameter clusters
// where each edge is cut with probability O(log n / diameter-budget) — not
// yet a colored decomposition. It is included for the E10 ablation:
// the experiments compare EN's phase-by-phase carving against
// chaining MPX partitions.

// MPXResult is a random-shift partition together with its quality numbers.
type MPXResult struct {
	// Cluster[v] is the center whose shifted distance v minimizes.
	Cluster []int
	// CutEdges counts edges whose endpoints landed in different clusters.
	CutEdges int
	// MaxClusterDiameter is the maximum strong diameter over clusters.
	MaxClusterDiameter int
	// Rounds is the engine-measured CONGEST round count.
	Rounds int
}

// mpxEntry and the program below reuse the EN top-1 flooding machinery: a
// single bounded flood of (center, δ − dist) values; each node adopts the
// best. One pass, cap+2 rounds.
type mpxProgram struct {
	cap  int
	ctx  *sim.NodeCtx
	best enEntry
	out  int
}

func (p *mpxProgram) Init(ctx *sim.NodeCtx) {
	p.ctx = ctx
	lg := log2Ceil(ctx.N)
	p.cap = 2*lg + 4
	p.out = -1
}

func (p *mpxProgram) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	switch {
	case r == 0:
		delta, _ := p.ctx.Rand.Geometric(p.cap)
		p.best = enEntry{id: p.ctx.ID, val: delta}
		return p.broadcast(), false
	case r <= p.cap:
		for _, m := range inbox {
			if m == nil {
				continue
			}
			var vals [2]uint64
			if !sim.DecodeUintsInto(m, vals[:]) {
				continue
			}
			e := enEntry{id: vals[0], val: int(vals[1]) - 1}
			if e.val >= 0 && e.better(p.best) {
				p.best = e
			}
		}
		return p.broadcast(), false
	default:
		p.out = int(p.best.id)
		return nil, true
	}
}

func (p *mpxProgram) broadcast() []sim.Message {
	return p.ctx.Broadcast(p.ctx.Uints(p.best.id, uint64(p.best.val)))
}

func (p *mpxProgram) Output() int { return p.out }

// MPXPartition runs one random-shift partition pass in the CONGEST model.
// Every node is assigned to exactly one cluster; clusters have strong
// diameter O(log n) w.h.p. and the expected cut fraction is O(log n)/cap.
// exec carries the run's execution knobs.
func MPXPartition(g *graph.Graph, src randomness.Source, ids []uint64, exec sim.ExecOptions) (*MPXResult, error) {
	cfg := sim.Config{
		Graph:          g,
		IDs:            ids,
		Source:         src,
		MaxMessageBits: sim.CongestBits(g.N()),
	}
	exec.Apply(&cfg)
	res, err := sim.Execute(cfg, func(int) sim.NodeProgram[int] {
		return &mpxProgram{}
	})
	if err != nil {
		return nil, err
	}
	out := &MPXResult{Cluster: res.Outputs, Rounds: res.Rounds}
	for v, c := range out.Cluster {
		if c < 0 {
			return nil, fmt.Errorf("decomp: MPX left node %d unassigned", v)
		}
	}
	g.Edges(func(u, v int) {
		if out.Cluster[u] != out.Cluster[v] {
			out.CutEdges++
		}
	})
	// Strong diameter per cluster.
	idx, sizes := labelIndex(out.Cluster)
	pieces := graph.NewPieces(g, idx)
	for piece := pieces.Next(); piece != nil; piece = pieces.Next() {
		if len(piece) < int(sizes[idx[piece[0]]]) {
			return nil, fmt.Errorf("decomp: MPX produced a disconnected cluster")
		}
		out.MaxClusterDiameter = max(out.MaxClusterDiameter, pieces.Diameter())
	}
	return out, nil
}
