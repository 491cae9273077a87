package sim

import (
	"bytes"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

func TestArenaCarvesAreDisjoint(t *testing.T) {
	a := &arena{}
	a.rotate()
	m1 := a.uints([]uint64{1, 2, 300})
	m2 := a.uints([]uint64{7})
	m3 := a.alloc(4)
	copy(m3, []byte{0xde, 0xad, 0xbe, 0xef})

	if got, _ := DecodeUints(m1, 3); got[0] != 1 || got[1] != 2 || got[2] != 300 {
		t.Errorf("m1 decoded to %v", got)
	}
	if got, _ := DecodeUints(m2, 1); got[0] != 7 {
		t.Errorf("m2 decoded to %v", got)
	}
	// Carves are capacity-capped, so writing one cannot bleed into another.
	m2[0] = 0xff
	if got, ok := DecodeUints(m1, 3); !ok || got[2] != 300 {
		t.Errorf("m1 corrupted by m2 write: %v", got)
	}
	if !bytes.Equal(m3, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Errorf("m3 = %x", m3)
	}
}

// TestArenaRotationLifetime checks the double-buffer contract: a payload
// carved in round r stays intact through round r+1 (when its receiver reads
// it) and its memory is recycled — zeroed for alloc — in round r+2.
func TestArenaRotationLifetime(t *testing.T) {
	a := &arena{}
	a.rotate() // round 0
	m := a.uints([]uint64{12345})
	want := append(Message(nil), m...)

	a.rotate() // round 1: the other buffer; m must survive
	a.uints([]uint64{999})
	if !bytes.Equal(m, want) {
		t.Fatalf("payload clobbered one rotation after carve: %x != %x", m, want)
	}

	a.rotate() // round 2: m's buffer is reset and may be overwritten
	reused := a.alloc(len(want))
	for i, b := range reused {
		if b != 0 {
			t.Fatalf("alloc returned stale byte %#x at %d after reuse", b, i)
		}
	}
}

func TestArenaGrowthKeepsOldCarvesAlive(t *testing.T) {
	a := &arena{}
	a.rotate()
	small := a.uints([]uint64{42})
	// Force several chunk replacements within the same round.
	for i := 0; i < 200; i++ {
		a.alloc(64)
	}
	if got, ok := DecodeUints(small, 1); !ok || got[0] != 42 {
		t.Errorf("carve from pre-growth chunk lost: %v ok=%v", got, ok)
	}
}

// TestNodeCtxArenaFallback checks both halves of the NodeCtx payload API:
// without an engine arena it heap-allocates, and either way the encoding is
// byte-identical to the package-level Uints.
func TestNodeCtxArenaFallback(t *testing.T) {
	bare := &NodeCtx{}
	if got := bare.Uints(5, 600, 1<<40); !bytes.Equal(got, Uints(5, 600, 1<<40)) {
		t.Errorf("bare ctx Uints = %x", got)
	}
	if got := bare.Alloc(8); len(got) != 8 {
		t.Errorf("bare ctx Alloc len = %d", len(got))
	}

	wired := &NodeCtx{w: &wire{arena: &arena{}}}
	wired.w.arena.rotate()
	if got := wired.Uints(5, 600, 1<<40); !bytes.Equal(got, Uints(5, 600, 1<<40)) {
		t.Errorf("arena ctx Uints = %x", got)
	}
	if got := wired.Alloc(3); len(got) != 3 || got[0] != 0 {
		t.Errorf("arena ctx Alloc = %x", got)
	}
	// No values means "send nothing" (nil) on both paths, like Uints().
	if bare.Uints() != nil || wired.Uints() != nil {
		t.Error("empty Uints must be nil on both paths")
	}
	// Alloc(0) is a deliberate zero-byte message: always non-nil, even on a
	// virgin arena, so whether it is delivered never depends on arena state.
	if bare.Alloc(0) == nil || wired.Alloc(0) == nil {
		t.Error("Alloc(0) must be non-nil on both paths")
	}
	virgin := &NodeCtx{w: &wire{arena: &arena{}}}
	if virgin.Alloc(0) == nil {
		t.Error("Alloc(0) on a virgin arena must be non-nil")
	}
}

// initCarver carves its payload during Init, sends it in round 0, and in
// round 1 sums what its neighbors sent — while also carving fresh payloads
// in round 1, which would overwrite the Init carves if the engines rotated
// the arena before round 0. Outputs are checked against the graph directly
// and across worker counts.
type initCarver struct {
	ctx     *NodeCtx
	payload Message
	sum     uint64
}

func (p *initCarver) Init(ctx *NodeCtx) {
	p.ctx = ctx
	p.payload = ctx.Uints(ctx.ID + 1000)
}

func (p *initCarver) Round(r int, inbox []Message) ([]Message, bool) {
	out := p.ctx.Outbox
	switch r {
	case 0:
		for i := range out {
			out[i] = p.payload
		}
		return out, false
	default:
		churn := p.ctx.Uints(p.ctx.ID) // force arena churn while reading
		for i := range out {
			out[i] = churn
		}
		for _, m := range inbox {
			if x, _, ok := ReadUint(m); ok {
				p.sum += x
			}
		}
		return out, true
	}
}

func (p *initCarver) Output() uint64 { return p.sum }

func TestInitCarvedPayloadsSurviveIntoRoundOne(t *testing.T) {
	// Path(3) is the deterministic trigger: all Init carves share one arena
	// chunk, so a premature round-1 reset would let the churn carves
	// overwrite them in place. The GNP case covers the general shape.
	for _, g := range []*graph.Graph{
		graph.Path(3),
		graph.GNPConnected(80, 0.08, prng.New(11)),
	} {
		want := make([]uint64, g.N())
		for v := range want {
			for _, w := range g.Neighbors(v) {
				want[v] += uint64(w) + 1000
			}
		}
		factory := func(int) NodeProgram[uint64] { return &initCarver{} }
		check := func(label string, res *Result[uint64], err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for v, got := range res.Outputs {
				if got != want[v] {
					t.Errorf("%s n=%d: node %d sum = %d, want %d", label, g.N(), v, got, want[v])
				}
			}
		}
		cfg := Config{Graph: g}
		res, err := Run(cfg, factory)
		check("sequential", res, err)
		res, err = RunParallel(cfg, factory, 3)
		check("parallel", res, err)
	}
}
