package check

import (
	"randlocal/internal/graph"
	"randlocal/internal/sim"
)

// splitChecker is the 1-round distributed checker for the splitting
// problem, run on the bipartite communication graph: V-side nodes announce
// their color; U-side nodes verify they heard both.
type splitChecker struct {
	ctx    *sim.NodeCtx
	isU    bool
	color  int
	answer bool
}

func (c *splitChecker) Init(ctx *sim.NodeCtx) { c.ctx = ctx; c.answer = true }

func (c *splitChecker) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	if r == 0 {
		if c.isU {
			return nil, false
		}
		if c.color != 0 && c.color != 1 {
			c.answer = false
			return nil, true
		}
		return c.ctx.Broadcast(c.ctx.Uints(uint64(c.color))), false
	}
	if c.isU {
		var saw [2]bool
		for _, m := range inbox {
			if m == nil {
				continue
			}
			x, _, ok := sim.ReadUint(m)
			if ok && x <= 1 {
				saw[x] = true
			}
		}
		if !saw[0] || !saw[1] {
			c.answer = false
		}
	}
	return nil, true
}

func (c *splitChecker) Output() bool { return c.answer }

// SplittingDistributedOpts runs the 1-round distributed splitting checker
// of Definition 2.2 on the bipartite communication graph induced by adjU
// (U-nodes get indices [0, |U|), V-nodes [|U|, |U|+nv)), over the network
// opt configures. It returns whether all nodes answered yes, matching the
// global Splitting validator.
func SplittingDistributedOpts(adjU [][]int, nv int, colors []int, opt Options) (bool, error) {
	nu := len(adjU)
	b := graph.NewBuilder(nu + nv)
	for u, ns := range adjU {
		for _, v := range ns {
			b.AddEdge(u, nu+v)
		}
	}
	g := b.Graph()
	res, err := sim.Execute(opt.config(g), func(node int) sim.NodeProgram[bool] {
		if node < nu {
			return &splitChecker{isU: true}
		}
		return &splitChecker{color: colors[node-nu]}
	})
	if err != nil {
		return false, err
	}
	for _, yes := range res.Outputs {
		if !yes {
			return false, nil
		}
	}
	return true, nil
}
