package randlocal

// Integration tests at the public-API level: each test exercises one
// end-to-end story a downstream user would script, across the facade only.

import (
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	g := GNPConnected(256, 4.0/256, NewRNG(1))
	src := NewFullRandomness(7)
	d, res, err := ElkinNeiman(g, src, nil, ENConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(g, 0, 0); err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || src.Ledger().TrueBits() == 0 {
		t.Error("accounting missing")
	}
	st := d.StatsOf(g)
	ok, err := CheckDecompositionDistrib(g, d, 2*st.MaxDiameter+2)
	if err != nil || !ok {
		t.Fatalf("distributed checker: ok=%v err=%v", ok, err)
	}
}

func TestFacadeSparseRandomnessFlow(t *testing.T) {
	g := Ring(1200)
	holders := GreedyDominatingSet(g, 2)
	src, err := NewSparseRandomness(holders, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LowRand(g, src, holders, LowRandConfig{H: 2, BitsPerCluster: 64, RulingAlphaFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Decomposition.Validate(g, 0, 0); err != nil {
		t.Fatal(err)
	}
	if src.Ledger().TrueBits() != int64(len(holders)) {
		t.Errorf("true bits %d != holders %d", src.Ledger().TrueBits(), len(holders))
	}
}

func TestFacadeSharedSeedFlow(t *testing.T) {
	g := Grid(14, 14)
	shared := NewSharedRandomness(250_000, NewRNG(5))
	res, err := SharedRand(g, shared, SharedRandConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Decomposition.Validate(g, 0, 0); err != nil {
		t.Fatal(err)
	}
	if res.SeedBitsUsed <= 0 {
		t.Error("seed accounting missing")
	}
}

func TestFacadeSymmetryBreaking(t *testing.T) {
	g := GNPConnected(200, 5.0/200, NewRNG(2))
	in, _, err := Luby(g, NewFullRandomness(1), nil, LubyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMIS(g, in); err != nil {
		t.Fatal(err)
	}
	colors, _, err := RandomizedColoring(g, NewFullRandomness(2), nil, ColoringConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckColoring(g, colors, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDerandomizationPipeline(t *testing.T) {
	g := GNPConnected(150, 4.0/150, NewRNG(3))
	res, err := DerandomizedMIS(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMIS(g, res.Outputs); err != nil {
		t.Fatal(err)
	}
	cres, err := DerandomizedColoring(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckColoring(g, cres.Outputs, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSplittingAndCFMC(t *testing.T) {
	inst := RandomSplittingInstance(40, 200, 30, NewRNG(4))
	gen, err := NewEpsBias(24, NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	colors := SolveSplittingEpsBias(inst, gen)
	if !inst.Check(colors) {
		t.Skip("rare ε-bias failure on this seed; covered statistically in internal tests")
	}
	if err := CheckSplitting(inst.AdjU, colors); err != nil {
		t.Fatal(err)
	}

	h := &Hypergraph{N: 100, Edges: [][]int{{1, 2, 3}, {4, 5}, {6}}}
	sets, _, err := SolveCFMCDeterministic(h, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConflictFree(h.Edges, sets); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeShatteringFlow(t *testing.T) {
	g := GNPConnected(300, 3.0/300, NewRNG(6))
	res, err := Shattering(g, NewFullRandomness(9), ShatteringConfig{ENPhases: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Decomposition.ValidateWeak(g, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCustomNodeProgram(t *testing.T) {
	// A downstream user writes their own NodeProgram against the facade.
	g := Ring(16)
	cfg := SimConfig{Graph: g, MaxMessageBits: CongestBits(16)}
	res, err := Run(cfg, func(int) NodeProgram[int] { return &hopCounter{limit: 4} })
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outputs {
		if out != 4 {
			t.Errorf("hop counter output %d", out)
		}
	}
}

// hopCounter counts rounds up to a limit — a minimal NodeProgram, written
// the zero-alloc way: the outbox comes from the engine-owned Outbox scratch
// (via Broadcast) and the payload from the per-round arena (via ctx.Uints),
// so its steady-state rounds allocate nothing.
type hopCounter struct {
	ctx   *NodeCtx
	limit int
	count int
}

func (h *hopCounter) Init(ctx *NodeCtx) { h.ctx = ctx }
func (h *hopCounter) Round(r int, inbox []Message) ([]Message, bool) {
	h.count++
	if h.count >= h.limit {
		return nil, true
	}
	return h.ctx.Broadcast(h.ctx.Uints(1)), false
}
func (h *hopCounter) Output() int { return h.count }

func TestFacadeRulingSet(t *testing.T) {
	g := GNPConnected(100, 0.05, NewRNG(7))
	rs, err := RulingSet(g, nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	if err := VerifyRulingSet(g, all, rs, rs.Alpha*rs.Levels); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSeedSearch(t *testing.T) {
	p := NeighborhoodSplitting(3)
	res, err := SeedSearch(p, AllGraphs(3), func(g *Graph) []uint64 {
		return SequentialIDs(g.N())
	}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tried != 512 {
		t.Errorf("tried %d", res.Tried)
	}
}

func TestFacadeSLOCAL(t *testing.T) {
	g := GNPConnected(80, 0.07, NewRNG(8))
	out := RunSLOCAL(g, SLOCALGreedyMIS(), nil)
	if err := CheckMIS(g, out); err != nil {
		t.Fatal(err)
	}
	power := PowerGraph(g, 3)
	d := DeterministicDecomposition(power)
	res, err := CompileSLOCAL(g, SLOCALGreedyMIS(), d)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMIS(g, res.Outputs); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeParallelScheduler(t *testing.T) {
	// An end-to-end Luby run must produce the identical MIS and accounting
	// on both engines: the wrapper dispatches through Execute on the
	// ExecOptions of its config.
	g := PowerLaw(400, 3, NewRNG(17))
	run := func(exec ExecOptions) ([]bool, *SimResult[LubyOutput]) {
		in, res, err := Luby(g, NewFullRandomness(23), nil, LubyConfig{Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckMIS(g, in); err != nil {
			t.Fatal(err)
		}
		return in, res
	}
	wantIn, wantRes := run(ExecOptions{})
	for _, sched := range []Scheduler{SchedulerParallel} {
		gotIn, gotRes := run(ExecOptions{Scheduler: sched})
		for v := range wantIn {
			if gotIn[v] != wantIn[v] {
				t.Fatalf("%v: MIS differs at node %d", sched, v)
			}
		}
		if gotRes.Rounds != wantRes.Rounds || gotRes.Messages != wantRes.Messages || gotRes.BitsTotal != wantRes.BitsTotal {
			t.Errorf("%v: accounting (%d,%d,%d) differs from sequential (%d,%d,%d)",
				sched, gotRes.Rounds, gotRes.Messages, gotRes.BitsTotal,
				wantRes.Rounds, wantRes.Messages, wantRes.BitsTotal)
		}
	}

	// Direct RunParallel through the facade with an explicit worker count.
	cfg := SimConfig{Graph: g, Source: NewFullRandomness(5), MaxMessageBits: CongestBits(g.N())}
	factory := func(int) NodeProgram[LubyOutput] { return NewLubyProgram(LubyConfig{}) }
	seqRes, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := RunParallel(cfg, factory, 4)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Rounds != seqRes.Rounds || parRes.Messages != seqRes.Messages {
		t.Errorf("RunParallel accounting (%d,%d) differs from Run (%d,%d)",
			parRes.Rounds, parRes.Messages, seqRes.Rounds, seqRes.Messages)
	}
}
