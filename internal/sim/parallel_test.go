package sim

import (
	"errors"
	"fmt"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

// randFlood floods a per-node value for a fixed number of rounds, min-
// combining what it hears. The value mixes the node's private random bits
// (when the regime grants any) with its ID, and nodes halt at staggered
// rounds, so the program exercises randomness plumbing, varint-sized
// messages, and mid-run termination on every scheduler.
type randFlood struct {
	rounds int
	ctx    *NodeCtx
	best   uint64
}

func (f *randFlood) Init(ctx *NodeCtx) {
	f.ctx = ctx
	if ctx.Rand != nil {
		f.best = ctx.Rand.Bits(8)<<32 | ctx.ID
	} else {
		f.best = ctx.ID<<16 | 0xbeef
	}
}

func (f *randFlood) Round(r int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		if x, _, ok := ReadUint(m); ok && x < f.best {
			f.best = x
		}
	}
	if r >= f.rounds+int(f.ctx.ID%3) {
		return nil, true
	}
	out := make([]Message, f.ctx.Degree)
	payload := Uints(f.best)
	for p := range out {
		out[p] = payload
	}
	return out, false
}

func (f *randFlood) Output() uint64 { return f.best }

func assertResultsEqual[T comparable](t *testing.T, label string, want, got *Result[T]) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Errorf("%s: rounds = %d, want %d", label, got.Rounds, want.Rounds)
	}
	if len(got.ActivePerRound) != len(want.ActivePerRound) {
		t.Errorf("%s: active trace length = %d, want %d", label, len(got.ActivePerRound), len(want.ActivePerRound))
	} else {
		for r := range want.ActivePerRound {
			if got.ActivePerRound[r] != want.ActivePerRound[r] {
				t.Errorf("%s: active[%d] = %d, want %d", label, r, got.ActivePerRound[r], want.ActivePerRound[r])
				break
			}
		}
	}
	if got.Messages != want.Messages {
		t.Errorf("%s: messages = %d, want %d", label, got.Messages, want.Messages)
	}
	if got.BitsTotal != want.BitsTotal {
		t.Errorf("%s: bits = %d, want %d", label, got.BitsTotal, want.BitsTotal)
	}
	if got.MaxMessageBits != want.MaxMessageBits {
		t.Errorf("%s: maxMessageBits = %d, want %d", label, got.MaxMessageBits, want.MaxMessageBits)
	}
	for v := range want.Outputs {
		if got.Outputs[v] != want.Outputs[v] {
			t.Fatalf("%s: node %d output %v, want %v", label, v, got.Outputs[v], want.Outputs[v])
		}
	}
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// equivalenceGraphs returns the graph families of the equivalence suites.
func equivalenceGraphs() []namedGraph {
	rng := prng.New(2019)
	return []namedGraph{
		{"gnp", graph.GNPConnected(120, 0.04, rng)},
		{"tree", graph.RandomTree(150, rng)},
		{"powerlaw", graph.PowerLaw(130, 3, rng)},
	}
}

// equivalenceRegimes are the randomness regimes of the equivalence suites;
// mk returns a fresh source for an n-node run.
var equivalenceRegimes = []struct {
	name string
	mk   func(n int) randomness.Source
}{
	{"deterministic", func(int) randomness.Source { return nil }},
	{"full", func(int) randomness.Source { return randomness.NewFull(7) }},
	{"shared", func(int) randomness.Source { return randomness.NewShared(64, prng.New(5)) }},
	{"sparse", func(n int) randomness.Source {
		holders := make([]int, 0, n/3+1)
		for v := 0; v < n; v += 3 {
			holders = append(holders, v)
		}
		src, err := randomness.NewSparse(holders, 8, 13)
		if err != nil {
			panic(err)
		}
		return src
	}},
}

// TestSchedulerEquivalence is the determinism proof of the parallel engine:
// on every graph family and randomness regime, Run and RunParallel (across
// worker counts) must agree on every Result field.
func TestSchedulerEquivalence(t *testing.T) {
	for _, tg := range equivalenceGraphs() {
		n := tg.g.N()
		ids := RandomIDs(n, n, NewSimulationKey(uint64(n)))
		factory := func(int) NodeProgram[uint64] { return &randFlood{rounds: graph.Diameter(tg.g) + 1} }
		for _, reg := range equivalenceRegimes {
			t.Run(tg.name+"/"+reg.name, func(t *testing.T) {
				cfg := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n)}
				cfg.Source = reg.mk(n)
				want, err := Run(cfg, factory)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 1, 2, 3, 7, n + 5} {
					cfg.Source = reg.mk(n)
					got, err := RunParallel(cfg, factory, workers)
					if err != nil {
						t.Fatal(err)
					}
					assertResultsEqual(t, fmt.Sprintf("parallel/workers=%d", workers), want, got)
				}
			})
		}
	}
}

// outboxFlood is randFlood rebuilt on the engine-owned NodeCtx.Outbox
// scratch: it assembles every round's outbox in place instead of
// allocating. Running it through the equivalence harness proves the flat
// outbox windows never leak messages across nodes or rounds on any
// scheduler.
type outboxFlood struct {
	rounds int
	ctx    *NodeCtx
	best   uint64
}

func (f *outboxFlood) Init(ctx *NodeCtx) {
	f.ctx = ctx
	f.best = ctx.ID<<16 | 0xbeef
}

func (f *outboxFlood) Round(r int, inbox []Message) ([]Message, bool) {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		if x, _, ok := ReadUint(m); ok && x < f.best {
			f.best = x
		}
	}
	if r >= f.rounds+int(f.ctx.ID%3) {
		return nil, true
	}
	out := f.ctx.Outbox
	payload := Uints(f.best)
	for p := range out {
		out[p] = payload
		if (r+p)%5 == 0 {
			out[p] = nil // exercise stale-slot clearing on reused buffers
		}
	}
	return out, false
}

func (f *outboxFlood) Output() uint64 { return f.best }

// TestSchedulerEquivalenceWithCtxOutbox runs the zero-allocation outbox
// program on every scheduler and demands identical Results, including the
// message and bit accounting that would drift if a reused outbox slot or a
// shared payload were delivered twice.
func TestSchedulerEquivalenceWithCtxOutbox(t *testing.T) {
	rng := prng.New(77)
	for _, g := range []*graph.Graph{
		graph.GNPConnected(140, 0.05, rng),
		graph.Grid2D(9, 13, true),
	} {
		n := g.N()
		ids := RandomIDs(n, n, NewSimulationKey(uint64(n)))
		cfg := Config{Graph: g, IDs: ids, MaxMessageBits: CongestBits(n)}
		factory := func(int) NodeProgram[uint64] { return &outboxFlood{rounds: graph.Diameter(g) + 1} }
		want, err := Run(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5, n} {
			got, err := RunParallel(cfg, factory, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, fmt.Sprintf("parallel/workers=%d", workers), want, got)
		}
	}
}

// TestRunParallelReshardEquivalence drives the re-sharding path hard: the
// staggered-halting program shrinks the worklist geometrically, so the
// coordinator re-cuts the shards at every halving (roughly log₂ n times per
// run), across graphs with skewed degree distributions where the re-cut
// actually moves boundaries. Results must stay byte-identical to the
// sequential engine through every cut — including the delivery of messages
// staged to nodes that changed shards, and the clearing of inbox slots
// recorded under the old boundaries.
func TestRunParallelReshardEquivalence(t *testing.T) {
	rng := prng.New(404)
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", graph.PowerLaw(400, 3, rng)},
		{"gnp", graph.GNPConnected(350, 0.02, rng)},
		{"two-components", graph.Disjoint(graph.Ring(180), graph.RandomTree(200, rng))},
	} {
		t.Run(tg.name, func(t *testing.T) {
			n := tg.g.N()
			ids := RandomIDs(n, 3, NewSimulationKey(uint64(n)*7+5))
			cfg := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n)}
			factory := func(int) NodeProgram[uint64] { return &staggeredHalt{} }
			want, err := Run(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, err := RunParallel(cfg, factory, workers)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, fmt.Sprintf("workers=%d", workers), want, got)
			}
		})
	}
}

// TestRunParallelSmallNetworks exercises the engine where shards are thinner
// than the pool: the -race runs in CI hammer these paths.
func TestRunParallelSmallNetworks(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5} {
		g := graph.Path(n)
		res, err := RunParallel(Config{Graph: g}, floodFactory(n), 4)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for v, out := range res.Outputs {
			if out != 0 {
				t.Errorf("n=%d node %d: %d", n, v, out)
			}
		}
	}
}

func TestRunParallelBandwidthEnforced(t *testing.T) {
	g := graph.Ring(8)
	cfg := Config{Graph: g, MaxMessageBits: CongestBits(8)}
	_, err := RunParallel(cfg, func(int) NodeProgram[int] { return &bigTalker{} }, 4)
	var bw *BandwidthError
	if !errors.As(err, &bw) {
		t.Fatalf("got %v, want BandwidthError", err)
	}
	// Every node violates in round 0; the engine must deterministically
	// report the lowest-indexed one, exactly like Run.
	if bw.Node != 0 || bw.Bits != 8000 {
		t.Errorf("reported node=%d bits=%d, want node=0 bits=8000", bw.Node, bw.Bits)
	}
}

func TestRunParallelOversizedOutboxRejected(t *testing.T) {
	g := graph.Ring(8)
	if _, err := RunParallel(Config{Graph: g}, func(int) NodeProgram[int] { return &oversender{} }, 3); err == nil {
		t.Error("parallel accepted oversized outbox")
	}
}

func TestRunParallelStuckDetection(t *testing.T) {
	g := graph.Path(6)
	cfg := Config{Graph: g, MaxRounds: 10}
	_, err := RunParallel(cfg, func(int) NodeProgram[int] { return &sleeper{} }, 3)
	var stuck *StuckError
	if !errors.As(err, &stuck) {
		t.Fatalf("got %v, want StuckError", err)
	}
	if stuck.Running != 6 {
		t.Errorf("running = %d", stuck.Running)
	}
}

func TestExecuteDispatch(t *testing.T) {
	g := graph.Ring(12)
	want, err := Run(Config{Graph: g}, floodFactory(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Scheduler{Auto, Sequential, Parallel} {
		got, err := Execute(Config{Graph: g, Scheduler: sched, Workers: 3}, floodFactory(6))
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		assertResultsEqual(t, "execute/"+sched.String(), want, got)
	}

	// Auto follows the package default.
	SetDefaultScheduler(Parallel, 2)
	defer SetDefaultScheduler(Sequential, 0)
	got, err := Execute(Config{Graph: g}, floodFactory(6))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "execute/default-parallel", want, got)
}

func TestParseScheduler(t *testing.T) {
	for name, want := range map[string]Scheduler{
		"": Auto, "auto": Auto,
		"sequential": Sequential, "seq": Sequential,
		"parallel": Parallel, "par": Parallel,
	} {
		got, err := ParseScheduler(name)
		if err != nil || got != want {
			t.Errorf("ParseScheduler(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"bogus", "concurrent"} {
		if _, err := ParseScheduler(name); err == nil {
			t.Errorf("scheduler %q accepted", name)
		}
	}
	if Parallel.String() != "parallel" {
		t.Errorf("String() = %q", Parallel.String())
	}
}
