// Package protocols provides the classic building-block CONGEST protocols
// used throughout the constructions and available to downstream users of
// the simulator: bounded flooding (leader election by minimum identifier),
// BFS-tree construction, and convergecast aggregation along the tree.
// These are exactly the "simple flooding", "parallel BFS explorations" and
// "upcast on the tree" primitives the paper's Lemmas 3.2/3.3 and
// Theorem 4.2 invoke; having them as tested node programs makes the round
// accounting of the composite constructions concrete.
package protocols

import (
	"randlocal/internal/graph"
	"randlocal/internal/sim"
)

// FloodMinProgram floods the minimum identifier for a fixed number of
// rounds; with rounds ≥ the (component) diameter every node learns the
// component's minimum — leader election under known network size.
type FloodMinProgram struct {
	Rounds int
	ctx    *sim.NodeCtx
	best   uint64
}

// NewFloodMin returns the program; rounds 0 means ctx.N (always enough).
func NewFloodMin(rounds int) *FloodMinProgram { return &FloodMinProgram{Rounds: rounds} }

func (f *FloodMinProgram) Init(ctx *sim.NodeCtx) {
	f.ctx = ctx
	f.best = ctx.ID
	if f.Rounds == 0 {
		f.Rounds = ctx.N
	}
}

// Round implements sim.NodeProgram.
func (f *FloodMinProgram) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		if x, _, ok := sim.ReadUint(m); ok && x < f.best {
			f.best = x
		}
	}
	if r >= f.Rounds {
		return nil, true
	}
	return f.ctx.Broadcast(f.ctx.Uints(f.best)), false
}

// Output returns the minimum identifier heard.
func (f *FloodMinProgram) Output() uint64 { return f.best }

// FloodMinBitProgram is the 1-bit restriction of FloodMin: every node holds
// one input bit and floods the global AND (the minimum over bits) for a fixed
// number of rounds — with rounds ≥ the component diameter every node learns
// whether any node of its component holds a 0. It declares PayloadBits() = 1,
// so the sequential and parallel engines run it over packed bit planes, and
// its absorb step is branch-free: a received 0 is a present bit whose value
// bit is clear, so `present &^ value` over each inbox word finds all
// min-lowering arrivals 64 ports at a time.
type FloodMinBitProgram struct {
	Rounds int
	Bit    uint64
	ctx    *sim.NodeCtx
}

// NewFloodMinBit returns the program with the given input bit; rounds 0
// means ctx.N (always enough).
func NewFloodMinBit(bit uint64, rounds int) *FloodMinBitProgram {
	return &FloodMinBitProgram{Rounds: rounds, Bit: bit & 1}
}

// PayloadBits declares the 1-bit payload width that lets the engines pack
// this program's message planes into bitmaps.
func (f *FloodMinBitProgram) PayloadBits() int { return 1 }

func (f *FloodMinBitProgram) Init(ctx *sim.NodeCtx) {
	f.ctx = ctx
	if f.Rounds == 0 {
		f.Rounds = ctx.N
	}
}

// Round implements sim.NodeProgram.
func (f *FloodMinBitProgram) Round(r int, _ []sim.Message) ([]sim.Message, bool) {
	var lowered uint64
	for j := 0; j < f.ctx.BitWords(); j++ {
		pres, val := f.ctx.InBitWord(j)
		lowered |= pres &^ val
	}
	if lowered != 0 {
		f.Bit = 0
	}
	if r >= f.Rounds {
		return nil, true
	}
	return f.ctx.BroadcastBit(f.Bit), false
}

// Output returns the bit after flooding: the AND over the component (given
// enough rounds).
func (f *FloodMinBitProgram) Output() uint64 { return f.Bit }

// BFSOutput is the per-node result of the BFS-tree protocol.
type BFSOutput struct {
	// Dist is the hop distance from the root (-1 when unreached).
	Dist int
	// ParentPort is the port toward the parent (-1 at the root and at
	// unreached nodes).
	ParentPort int
	// SubtreeSize is the number of nodes in this node's subtree (set by
	// the convergecast phase; 0 when unreached).
	SubtreeSize int
}

// bfsTree builds a BFS tree from the node whose identifier equals RootID
// and then convergecasts subtree sizes to the root: the "build a cluster
// around each center and upcast" motif of Lemma 3.2 and Theorem 4.2, as a
// self-contained three-phase program.
//
// Phase A (rounds 0..T): the root wave; each node adopts the first sender
// as parent and forwards. Phase B (round T+1): every node announces its
// parent's identity so nodes learn their children. Phase C: leaves send
// their subtree size (1) up; internal nodes forward once all children have
// reported. All messages are a constant number of varints — CONGEST-sized.
type bfsTree struct {
	RootID   uint64
	Depth    int // wave budget T; 0 means ctx.N
	ctx      *sim.NodeCtx
	out      BFSOutput
	children []int // ports of children
	// reported[p] is the subtree size announced on port p (-1 until it
	// arrives) and nReported counts the ports that have announced — a
	// port-indexed slice instead of a map, so convergecast rounds allocate
	// nothing.
	reported  []int
	nReported int
	sentUp    bool
}

func (b *bfsTree) Init(ctx *sim.NodeCtx) {
	b.ctx = ctx
	if b.Depth == 0 {
		b.Depth = ctx.N
	}
	b.out = BFSOutput{Dist: -1, ParentPort: -1}
	b.reported = make([]int, ctx.Degree)
	for p := range b.reported {
		b.reported[p] = -1
	}
	if ctx.ID == b.RootID {
		b.out.Dist = 0
	}
}

const (
	bfsWave   = 1
	bfsParent = 2
	bfsCount  = 3
)

func (b *bfsTree) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	T := b.Depth
	switch {
	case r <= T: // Phase A: wave
		for port, m := range inbox {
			if m == nil {
				continue
			}
			var vals [2]uint64
			if !sim.DecodeUintsInto(m, vals[:]) || vals[0] != bfsWave {
				continue
			}
			if b.out.Dist < 0 {
				b.out.Dist = int(vals[1]) + 1
				b.out.ParentPort = port
			}
		}
		// Forward the wave exactly once, the round after joining.
		joinedAt := b.out.Dist
		if joinedAt >= 0 && r == joinedAt {
			out := b.ctx.Broadcast(b.ctx.Uints(bfsWave, uint64(b.out.Dist)))
			if b.out.ParentPort >= 0 {
				out[b.out.ParentPort] = nil
			}
			return out, false
		}
		return nil, false
	case r == T+1: // Phase B: parent announcement
		if b.out.Dist < 0 {
			return nil, true // unreached; done
		}
		out := b.ctx.Broadcast(nil)
		if b.out.ParentPort >= 0 {
			out[b.out.ParentPort] = b.ctx.Uints(bfsParent)
		}
		return out, false
	case r == T+2: // learn children
		for port, m := range inbox {
			if m == nil {
				continue
			}
			if k, _, ok := sim.ReadUint(m); ok && k == bfsParent {
				b.children = append(b.children, port)
			}
		}
		fallthrough
	default: // Phase C: convergecast
		for port, m := range inbox {
			if m == nil {
				continue
			}
			var vals [2]uint64
			if sim.DecodeUintsInto(m, vals[:]) && vals[0] == bfsCount {
				if b.reported[port] < 0 {
					b.nReported++
				}
				b.reported[port] = int(vals[1])
			}
		}
		if b.nReported == len(b.children) && !b.sentUp {
			size := 1
			for _, c := range b.children {
				size += b.reported[c]
			}
			b.out.SubtreeSize = size
			b.sentUp = true
			if b.out.ParentPort < 0 {
				return nil, true // root: done with the global count
			}
			out := b.ctx.Broadcast(nil)
			out[b.out.ParentPort] = b.ctx.Uints(bfsCount, uint64(size))
			return out, false
		}
		if b.sentUp {
			return nil, true
		}
		return nil, false
	}
}

func (b *bfsTree) Output() BFSOutput { return b.out }

// congestConfig is the CONGEST-bounded run of g under ids with the caller's
// execution knobs applied.
func congestConfig(g *graph.Graph, ids []uint64, exec sim.ExecOptions) sim.Config {
	cfg := sim.Config{Graph: g, IDs: ids, MaxMessageBits: sim.CongestBits(g.N())}
	exec.Apply(&cfg)
	return cfg
}

// BFSTree runs the three-phase BFS-tree + convergecast protocol from the
// node with the given identifier and returns the per-node outputs. The
// root's SubtreeSize equals the size of its connected component — a fact
// the tests assert. exec carries the run's execution knobs.
func BFSTree(g *graph.Graph, rootID uint64, ids []uint64, exec sim.ExecOptions) ([]BFSOutput, *sim.Result[BFSOutput], error) {
	res, err := sim.Execute(congestConfig(g, ids, exec), func(int) sim.NodeProgram[BFSOutput] {
		return &bfsTree{RootID: rootID}
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Outputs, res, nil
}

// FloodMinBit floods the global AND of the given input bits for the given
// number of rounds (0 = n, always sufficient) and reports each node's
// resulting bit. Every program declares a 1-bit payload width, so the
// sequential and parallel engines execute the flood over packed bit planes.
// exec carries the run's execution knobs.
func FloodMinBit(g *graph.Graph, bits []uint64, rounds int, exec sim.ExecOptions) ([]uint64, *sim.Result[uint64], error) {
	res, err := sim.Execute(congestConfig(g, nil, exec), func(v int) sim.NodeProgram[uint64] {
		return NewFloodMinBit(bits[v], rounds)
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Outputs, res, nil
}

// ElectLeader floods minimum identifiers for the given number of rounds
// (0 = n, always sufficient) and reports each node's elected leader. exec
// carries the run's execution knobs.
func ElectLeader(g *graph.Graph, ids []uint64, rounds int, exec sim.ExecOptions) ([]uint64, *sim.Result[uint64], error) {
	res, err := sim.Execute(congestConfig(g, ids, exec), func(int) sim.NodeProgram[uint64] {
		return NewFloodMin(rounds)
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Outputs, res, nil
}
