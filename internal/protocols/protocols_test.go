package protocols

import (
	"fmt"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/sim"
)

func TestElectLeader(t *testing.T) {
	rng := prng.New(3)
	g := graph.GNPConnected(80, 0.05, rng)
	ids := sim.RandomIDs(80, 5, sim.NewSimulationKey(rng.Uint64()))
	minID := ids[0]
	for _, id := range ids {
		if id < minID {
			minID = id
		}
	}
	leaders, res, err := ElectLeader(g, ids, 0, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range leaders {
		if l != minID {
			t.Errorf("node %d elected %d, want %d", v, l, minID)
		}
	}
	if res.MaxMessageBits > sim.CongestBits(80) {
		t.Error("CONGEST violated")
	}
}

func TestElectLeaderPerComponent(t *testing.T) {
	g := graph.Disjoint(graph.Ring(6), graph.Path(5))
	leaders, _, err := ElectLeader(g, nil, 0, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if leaders[v] != 0 {
			t.Errorf("component 1 node %d: leader %d", v, leaders[v])
		}
	}
	for v := 6; v < 11; v++ {
		if leaders[v] != 6 {
			t.Errorf("component 2 node %d: leader %d", v, leaders[v])
		}
	}
}

func TestBFSTreeOnFamilies(t *testing.T) {
	rng := prng.New(5)
	families := map[string]*graph.Graph{
		"path20": graph.Path(20),
		"ring30": graph.Ring(30),
		"grid6":  graph.Grid(6, 6),
		"gnp60":  graph.GNPConnected(60, 0.08, rng),
		"tree50": graph.RandomTree(50, rng),
		"single": graph.NewBuilder(1).Graph(),
		"star10": graph.Star(10),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			outs, res, err := BFSTree(g, 0, nil, sim.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := validateBFS(g, 0, outs); err != nil {
				t.Fatal(err)
			}
			if outs[0].SubtreeSize != g.N() {
				t.Errorf("root counted %d nodes, component has %d", outs[0].SubtreeSize, g.N())
			}
			if res.MaxMessageBits > sim.CongestBits(g.N()) {
				t.Error("CONGEST violated")
			}
		})
	}
}

func TestBFSTreeSubtreeSizesAreConsistent(t *testing.T) {
	g := graph.BalancedTree(2, 3) // 15 nodes
	outs, _, err := BFSTree(g, 0, nil, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// In a complete binary tree of depth 3 rooted at 0, the root's
	// children have subtrees of 7 each.
	if outs[0].SubtreeSize != 15 {
		t.Errorf("root subtree %d", outs[0].SubtreeSize)
	}
	if outs[1].SubtreeSize != 7 || outs[2].SubtreeSize != 7 {
		t.Errorf("children subtrees %d, %d", outs[1].SubtreeSize, outs[2].SubtreeSize)
	}
	// Leaves have subtree 1.
	for v := 7; v < 15; v++ {
		if outs[v].SubtreeSize != 1 {
			t.Errorf("leaf %d subtree %d", v, outs[v].SubtreeSize)
		}
	}
}

func TestBFSTreeDisconnected(t *testing.T) {
	g := graph.Disjoint(graph.Path(4), graph.Ring(4))
	outs, _, err := BFSTree(g, 0, nil, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Component of the root: counted; other component unreached.
	if outs[0].SubtreeSize != 4 {
		t.Errorf("root counted %d", outs[0].SubtreeSize)
	}
	for v := 4; v < 8; v++ {
		if outs[v].Dist != -1 || outs[v].SubtreeSize != 0 {
			t.Errorf("unreached node %d: %+v", v, outs[v])
		}
	}
}

func TestBFSTreeParallelEngineAgrees(t *testing.T) {
	g := graph.GNPConnected(50, 0.1, prng.New(8))
	cfg := sim.Config{Graph: g, MaxMessageBits: sim.CongestBits(g.N())}
	seq, err := sim.Run(cfg, func(int) sim.NodeProgram[BFSOutput] { return &bfsTree{RootID: 0} })
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.RunParallel(cfg, func(int) sim.NodeProgram[BFSOutput] { return &bfsTree{RootID: 0} }, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Outputs {
		if seq.Outputs[v] != par.Outputs[v] {
			t.Fatalf("node %d: %+v vs %+v", v, seq.Outputs[v], par.Outputs[v])
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := graph.Path(4)
	outs, _, err := BFSTree(g, 0, nil, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	outs[2].Dist = 7
	if err := validateBFS(g, 0, outs); err == nil {
		t.Error("corrupted distance accepted")
	}
}

// TestFloodMinBit checks the 1-bit AND-flood: with enough rounds every node
// learns the AND over its component; with a short budget information travels
// exactly as far as the round count allows.
func TestFloodMinBit(t *testing.T) {
	// Two components: a ring carrying one 0 (AND = 0) and a path of all 1s
	// (AND = 1).
	g := graph.Disjoint(graph.Ring(9), graph.Path(5))
	bits := make([]uint64, g.N())
	for v := range bits {
		bits[v] = 1
	}
	bits[4] = 0
	out, res, err := FloodMinBit(g, bits, 0, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 9; v++ {
		if out[v] != 0 {
			t.Errorf("ring node %d bit %d, want 0", v, out[v])
		}
	}
	for v := 9; v < g.N(); v++ {
		if out[v] != 1 {
			t.Errorf("path node %d bit %d, want 1", v, out[v])
		}
	}
	if res.MaxMessageBits != 8 {
		t.Errorf("max message bits = %d, want the canonical 8-bit wire encoding", res.MaxMessageBits)
	}

	// Diameter edge: on a path with the 0 at one end, r rounds inform
	// exactly the nodes within distance r.
	p := graph.Path(10)
	pb := make([]uint64, 10)
	for v := range pb {
		pb[v] = 1
	}
	pb[0] = 0
	out, _, err = FloodMinBit(p, pb, 3, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		want := uint64(1)
		if v <= 3 {
			want = 0
		}
		if out[v] != want {
			t.Errorf("path node %d after 3 rounds: bit %d, want %d", v, out[v], want)
		}
	}
}

// TestFloodMinBitMatchesFloodMin cross-checks the bit flood against the
// general FloodMin on the same instance: with each node's bit in the high
// word of its (distinct) identifier, the component minimum's high word IS
// the AND the bit flood computes.
func TestFloodMinBitMatchesFloodMin(t *testing.T) {
	rng := prng.New(17)
	g := graph.GNPConnected(120, 0.04, rng)
	bits := make([]uint64, g.N())
	ids := make([]uint64, g.N())
	for v := range bits {
		bits[v] = rng.Uint64() & 1
		ids[v] = bits[v]<<32 | uint64(v)
	}
	gotBits, _, err := FloodMinBit(g, bits, 0, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := sim.Run(sim.Config{Graph: g, IDs: ids, MaxMessageBits: sim.CongestBits(g.N())},
		func(int) sim.NodeProgram[uint64] { return NewFloodMin(0) })
	if err != nil {
		t.Fatal(err)
	}
	for v := range gotBits {
		if gotBits[v] != wantRes.Outputs[v]>>32 {
			t.Errorf("node %d: FloodMinBit %d, FloodMin high word %d", v, gotBits[v], wantRes.Outputs[v]>>32)
		}
	}
}

// validateBFS checks a BFS forest against the graph: parent distances
// decrease by one along parent pointers and distances match true BFS.
func validateBFS(g *graph.Graph, root int, outs []BFSOutput) error {
	want := g.BFS(root)
	for v, o := range outs {
		if want[v] != o.Dist {
			return fmt.Errorf("protocols: node %d dist %d, want %d", v, o.Dist, want[v])
		}
		if v == root && o.ParentPort != -1 {
			return fmt.Errorf("protocols: root has a parent")
		}
		if o.Dist > 0 {
			if o.ParentPort < 0 || o.ParentPort >= g.Degree(v) {
				return fmt.Errorf("protocols: node %d has bad parent port %d", v, o.ParentPort)
			}
			parent := g.Neighbors(v)[o.ParentPort]
			if outs[parent].Dist != o.Dist-1 {
				return fmt.Errorf("protocols: node %d parent %d at dist %d, want %d",
					v, parent, outs[parent].Dist, o.Dist-1)
			}
		}
	}
	return nil
}
