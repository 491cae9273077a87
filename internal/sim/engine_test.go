package sim

import (
	"errors"
	"testing"
	"testing/quick"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

// floodMin is the classic leader-election-by-flooding program: every node
// repeatedly broadcasts the smallest identifier it has heard, for a fixed
// number of rounds. It exercises messaging, inbox delivery and termination.
type floodMin struct {
	rounds int
	ctx    *NodeCtx
	best   uint64
}

func (f *floodMin) Init(ctx *NodeCtx) { f.ctx = ctx; f.best = ctx.ID }

func (f *floodMin) Round(r int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		x, _, ok := ReadUint(m)
		if ok && x < f.best {
			f.best = x
		}
	}
	if r >= f.rounds {
		return nil, true
	}
	out := make([]Message, f.ctx.Degree)
	payload := Uints(f.best)
	for p := range out {
		out[p] = payload
	}
	return out, false
}

func (f *floodMin) Output() uint64 { return f.best }

func floodFactory(rounds int) func(int) NodeProgram[uint64] {
	return func(int) NodeProgram[uint64] { return &floodMin{rounds: rounds} }
}

func TestFloodMinSequential(t *testing.T) {
	g := graph.Ring(10)
	res, err := Run(Config{Graph: g}, floodFactory(graph.Diameter(g)+1))
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out != 0 {
			t.Errorf("node %d learned min %d, want 0", v, out)
		}
	}
	if res.Rounds != graph.Diameter(g)+2 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if res.Messages == 0 || res.BitsTotal == 0 {
		t.Error("no messages accounted")
	}
}

func TestFloodMinRespectsComponents(t *testing.T) {
	g := graph.Disjoint(graph.Ring(5), graph.Ring(5))
	res, err := Run(Config{Graph: g}, floodFactory(10))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if res.Outputs[v] != 0 {
			t.Errorf("component 1 node %d: %d", v, res.Outputs[v])
		}
	}
	for v := 5; v < 10; v++ {
		if res.Outputs[v] != 5 {
			t.Errorf("component 2 node %d: %d, want 5", v, res.Outputs[v])
		}
	}
}

func TestFloodMinWithCustomIDs(t *testing.T) {
	g := graph.Path(6)
	ids := AdversarialDescendingIDs(6)
	res, err := Run(Config{Graph: g, IDs: ids}, floodFactory(6))
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out != 0 {
			t.Errorf("node %d: %d", v, out)
		}
	}
}

// neighborIDCheck verifies that the engine delivers each message to the
// correct port: each node sends its ID on every port in round 0 and checks
// in round 1 that port p delivered NeighborIDs[p].
type neighborIDCheck struct {
	ctx *NodeCtx
	ok  bool
}

func (c *neighborIDCheck) Init(ctx *NodeCtx) { c.ctx = ctx; c.ok = true }

func (c *neighborIDCheck) Round(r int, inbox []Message) ([]Message, bool) {
	switch r {
	case 0:
		out := make([]Message, c.ctx.Degree)
		for p := range out {
			out[p] = Uints(c.ctx.ID)
		}
		return out, false
	default:
		for p, m := range inbox {
			x, _, ok := ReadUint(m)
			if !ok || x != c.ctx.NeighborIDs[p] {
				c.ok = false
			}
		}
		return nil, true
	}
}

func (c *neighborIDCheck) Output() bool { return c.ok }

func TestPortDeliveryMatchesNeighborIDs(t *testing.T) {
	rng := prng.New(10)
	g := graph.GNPConnected(40, 0.15, rng)
	ids := RandomIDs(g.N(), 7, NewSimulationKey(rng.Uint64()))
	res, err := Run(Config{Graph: g, IDs: ids}, func(int) NodeProgram[bool] { return &neighborIDCheck{} })
	if err != nil {
		t.Fatal(err)
	}
	for v, ok := range res.Outputs {
		if !ok {
			t.Errorf("node %d saw wrong port delivery", v)
		}
	}
}

// bigTalker sends one oversized message to trigger the CONGEST check.
type bigTalker struct{ deg int }

func (b *bigTalker) Init(ctx *NodeCtx) { b.deg = ctx.Degree }
func (b *bigTalker) Round(r int, inbox []Message) ([]Message, bool) {
	out := make([]Message, b.deg)
	out[0] = make(Message, 1000)
	return out, true
}
func (b *bigTalker) Output() int { return 0 }

func TestCongestBandwidthEnforced(t *testing.T) {
	g := graph.Ring(4)
	cfg := Config{Graph: g, MaxMessageBits: CongestBits(4)}
	_, err := Run(cfg, func(int) NodeProgram[int] { return &bigTalker{} })
	var bw *BandwidthError
	if !errors.As(err, &bw) {
		t.Fatalf("sequential: got %v, want BandwidthError", err)
	}
	if bw.Bits != 8000 {
		t.Errorf("reported bits = %d", bw.Bits)
	}
}

func TestLocalModeAllowsBigMessages(t *testing.T) {
	g := graph.Ring(4)
	res, err := Run(Config{Graph: g}, func(int) NodeProgram[int] { return &bigTalker{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBits != 8000 {
		t.Errorf("max message = %d bits", res.MaxMessageBits)
	}
}

// sleeper never halts.
type sleeper struct{}

func (s *sleeper) Init(*NodeCtx) {}
func (s *sleeper) Round(int, []Message) ([]Message, bool) {
	return nil, false
}
func (s *sleeper) Output() int { return 0 }

func TestStuckDetection(t *testing.T) {
	g := graph.Path(3)
	cfg := Config{Graph: g, MaxRounds: 10}
	_, err := Run(cfg, func(int) NodeProgram[int] { return &sleeper{} })
	var stuck *StuckError
	if !errors.As(err, &stuck) {
		t.Fatalf("got %v, want StuckError", err)
	}
	if stuck.Running != 3 {
		t.Errorf("running = %d", stuck.Running)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, func(int) NodeProgram[int] { return &sleeper{} }); err == nil {
		t.Error("nil graph accepted")
	}
	g := graph.Path(3)
	if _, err := Run(Config{Graph: g, IDs: []uint64{1, 2}}, func(int) NodeProgram[int] { return &sleeper{} }); err == nil {
		t.Error("short ID list accepted")
	}
	if _, err := Run(Config{Graph: g, IDs: []uint64{1, 1, 2}}, func(int) NodeProgram[int] { return &sleeper{} }); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := Run(Config{Graph: g, DeclaredN: 2}, func(int) NodeProgram[int] { return &sleeper{} }); err == nil {
		t.Error("declared size below true size accepted")
	}
}

// oversender produces more outbox entries than its degree.
type oversender struct{ deg int }

func (o *oversender) Init(ctx *NodeCtx) { o.deg = ctx.Degree }
func (o *oversender) Round(int, []Message) ([]Message, bool) {
	return make([]Message, o.deg+5), true
}
func (o *oversender) Output() int { return 0 }

func TestOversizedOutboxRejected(t *testing.T) {
	g := graph.Ring(4)
	if _, err := Run(Config{Graph: g}, func(int) NodeProgram[int] { return &oversender{} }); err == nil {
		t.Error("sequential accepted oversized outbox")
	}
}

// randConsumer draws a few random bits and halts, outputting the first.
type randConsumer struct{ ctx *NodeCtx }

func (rc *randConsumer) Init(ctx *NodeCtx) { rc.ctx = ctx }
func (rc *randConsumer) Round(int, []Message) ([]Message, bool) {
	return nil, true
}
func (rc *randConsumer) Output() uint64 {
	if rc.ctx.Rand == nil {
		return 99
	}
	return rc.ctx.Rand.Bit()
}

func TestRandomnessSourcePlumbing(t *testing.T) {
	g := graph.Path(4)
	src := randomness.NewFull(7)
	res, err := Run(Config{Graph: g, Source: src}, func(int) NodeProgram[uint64] { return &randConsumer{} })
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out == 99 {
			t.Errorf("node %d had no randomness under Full", v)
		}
	}
	if src.Ledger().TrueBits() != 4 {
		t.Errorf("ledger true bits = %d, want 4", src.Ledger().TrueBits())
	}

	// Sparse: only node 2 holds a bit; others must see Rand == nil.
	sparse, _ := randomness.NewSparse([]int{2}, 1, 1)
	res, err = Run(Config{Graph: g, Source: sparse}, func(int) NodeProgram[uint64] { return &randConsumer{} })
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if v == 2 && out == 99 {
			t.Error("holder node 2 should have a stream")
		}
		if v != 2 && out != 99 {
			t.Errorf("non-holder %d has a stream", v)
		}
	}
}

func TestSharedSourceExposedViaCtx(t *testing.T) {
	g := graph.Path(3)
	shared := randomness.NewShared(32, prng.New(3))
	type probe struct {
		NodeProgram[uint64]
	}
	_ = probe{}
	res, err := Run(Config{Graph: g, Source: shared}, func(int) NodeProgram[uint64] {
		return &sharedProbe{}
	})
	if err != nil {
		t.Fatal(err)
	}
	// All nodes read the same first seed word.
	for v := 1; v < len(res.Outputs); v++ {
		if res.Outputs[v] != res.Outputs[0] {
			t.Error("shared seed differs across nodes")
		}
	}
}

type sharedProbe struct{ ctx *NodeCtx }

func (p *sharedProbe) Init(ctx *NodeCtx) { p.ctx = ctx }
func (p *sharedProbe) Round(int, []Message) ([]Message, bool) {
	return nil, true
}
func (p *sharedProbe) Output() uint64 {
	if p.ctx.Shared == nil {
		return 0
	}
	return p.ctx.Shared.SeedWord(0, 32)
}

func TestKT0HidesNeighborIDs(t *testing.T) {
	g := graph.Path(3)
	res, err := Run(Config{Graph: g, KT0: true}, func(int) NodeProgram[bool] { return &kt0Probe{} })
	if err != nil {
		t.Fatal(err)
	}
	for v, sawNil := range res.Outputs {
		if !sawNil {
			t.Errorf("node %d saw neighbor IDs under KT0", v)
		}
	}
}

type kt0Probe struct{ sawNil bool }

func (p *kt0Probe) Init(ctx *NodeCtx) { p.sawNil = ctx.NeighborIDs == nil }
func (p *kt0Probe) Round(int, []Message) ([]Message, bool) {
	return nil, true
}
func (p *kt0Probe) Output() bool { return p.sawNil }

func TestDeclaredNPropagation(t *testing.T) {
	g := graph.Path(2)
	res, err := Run(Config{Graph: g, DeclaredN: 1000}, func(int) NodeProgram[int] { return &nProbe{} })
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outputs {
		if out != 1000 {
			t.Errorf("declared n = %d, want 1000", out)
		}
	}
}

type nProbe struct{ n int }

func (p *nProbe) Init(ctx *NodeCtx) { p.n = ctx.N }
func (p *nProbe) Round(int, []Message) ([]Message, bool) {
	return nil, true
}
func (p *nProbe) Output() int { return p.n }

func TestEmptyNetwork(t *testing.T) {
	g := graph.NewBuilder(0).Graph()
	res, err := Run(Config{Graph: g}, floodFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || len(res.Outputs) != 0 {
		t.Errorf("empty network: rounds=%d outputs=%d", res.Rounds, len(res.Outputs))
	}
}

func TestSingleNodeNetwork(t *testing.T) {
	g := graph.NewBuilder(1).Graph()
	res, err := Run(Config{Graph: g}, floodFactory(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 0 || res.Rounds != 1 {
		t.Errorf("single node: out=%d rounds=%d", res.Outputs[0], res.Rounds)
	}
}

func TestCongestBits(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 48}, {2, 48}, {15, 48}, {1000, 80}, {1 << 16, 8 * 17},
	} {
		if got := CongestBits(tc.n); got != tc.want {
			t.Errorf("CongestBits(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestMessageCodec(t *testing.T) {
	m := Uints(0, 1, 127, 128, 1<<40)
	vals, ok := DecodeUints(m, 5)
	if !ok {
		t.Fatal("decode failed")
	}
	want := []uint64{0, 1, 127, 128, 1 << 40}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("vals[%d] = %d, want %d", i, vals[i], want[i])
		}
	}
	all, ok := DecodeAllUints(m)
	if !ok || len(all) != 5 {
		t.Errorf("DecodeAllUints: %v %v", all, ok)
	}
	if _, ok := DecodeUints(m, 6); ok {
		t.Error("decoding past the end should fail")
	}
	if _, _, ok := ReadUint(nil); ok {
		t.Error("ReadUint(nil) should fail")
	}
	// Malformed: a continuation byte with no terminator.
	if _, ok := DecodeAllUints(Message{0x80}); ok {
		t.Error("malformed varint accepted")
	}
}

func TestRandomIDsInjective(t *testing.T) {
	ids := RandomIDs(500, 3, NewSimulationKey(1))
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate ID")
		}
		if id >= 1500 {
			t.Fatalf("ID %d out of range", id)
		}
		seen[id] = true
	}
	// spread < 1 is clamped.
	ids = RandomIDs(10, 0, NewSimulationKey(2))
	if len(ids) != 10 {
		t.Error("clamped spread failed")
	}
}

func TestMessageCodecRoundTripQuick(t *testing.T) {
	f := func(xs []uint64) bool {
		m := Uints(xs...)
		got, ok := DecodeAllUints(m)
		if !ok {
			return false
		}
		if len(got) != len(xs) {
			// Uints(nil) encodes to an empty payload that decodes to nil.
			return len(xs) == 0 && len(got) == 0
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
