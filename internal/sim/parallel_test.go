package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
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

// TestSchedulerEquivalence is the width-independence proof of the engine: on
// every graph family and randomness regime, the default pool width
// (GOMAXPROCS) and a seven-worker pool must agree with Run on every Result
// field. TestReferenceEquivalence and FuzzEngines hold one to three workers
// to the reference engine; TestRunParallelSmallNetworks covers widths above
// n.
func TestSchedulerEquivalence(t *testing.T) {
	for _, tg := range equivalenceGraphs() {
		n := tg.g.N()
		ids := RandomIDs(n, n, NewSimulationKey(uint64(n)))
		rounds := graph.Diameter(tg.g) + 1
		factory := func(int) NodeProgram[uint64] { return &randFlood{rounds: rounds} }
		for _, reg := range equivalenceRegimes {
			t.Run(tg.name+"/"+reg.name, func(t *testing.T) {
				cfg := Config{Graph: tg.g, IDs: ids, MaxMessageBits: CongestBits(n)}
				cfg.Source = reg.mk(n)
				want, err := Run(cfg, factory)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 7} {
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
		rounds := graph.Diameter(g) + 1
		factory := func(int) NodeProgram[uint64] { return &outboxFlood{rounds: rounds} }
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

// TestRunParallelProgressHook asserts the Progress feed under the parallel
// engine on a shrinking fringe: the hook must fire exactly once per round,
// in order, with the cumulative counters the final Result confirms. CI runs
// this under -race, which would catch the hook racing the worker pool.
func TestRunParallelProgressHook(t *testing.T) {
	rng := prng.New(912)
	g := graph.PowerLaw(500, 3, rng)
	n := g.N()
	ids := RandomIDs(n, 3, NewSimulationKey(uint64(n)*9+1))
	var updates []Progress
	cfg := Config{
		Graph: g, IDs: ids, MaxMessageBits: CongestBits(n),
		Progress: func(p Progress) { updates = append(updates, p) },
	}
	res, err := RunParallel(cfg, func(int) NodeProgram[uint64] { return &staggeredHalt{} }, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != res.Rounds {
		t.Fatalf("%d progress updates for %d rounds", len(updates), res.Rounds)
	}
	running := n
	var lastMsgs int64
	for i, p := range updates {
		if p.Round != i+1 {
			t.Fatalf("update %d reports round %d, want %d (each round exactly once, in order)", i, p.Round, i+1)
		}
		if p.Active != res.ActivePerRound[i] {
			t.Errorf("update %d active = %d, want %d", i, p.Active, res.ActivePerRound[i])
		}
		if p.Running > running {
			t.Errorf("update %d running %d grew from %d", i, p.Running, running)
		}
		running = p.Running
		if p.Messages < lastMsgs {
			t.Errorf("update %d messages %d shrank from %d", i, p.Messages, lastMsgs)
		}
		lastMsgs = p.Messages
	}
	final := updates[len(updates)-1]
	if final.Round != res.Rounds || final.Running != 0 || final.Messages != res.Messages {
		t.Errorf("final update %+v disagrees with Result (rounds=%d messages=%d)", final, res.Rounds, res.Messages)
	}
}

// TestRunParallelHostIndependent holds the engine to the worker count it was
// given, whatever the runtime's processor limit: the same workers=3 run under
// GOMAXPROCS 1 and 2 must agree on the Result and on every deterministic
// telemetry field — the lane count and, per round, each lane's staged count
// and delivery mode. Only the clock fields may differ.
func TestRunParallelHostIndependent(t *testing.T) {
	g := graph.GNPConnected(4096, 8.0/4096, prng.New(4096))
	n := g.N()
	key := NewSimulationKey(41)
	ids := RandomIDs(n, n, key)
	factory := func(int) NodeProgram[uint64] { return &bitGossip{rounds: 6} }
	for _, unpacked := range []bool{false, true} {
		t.Run(fmt.Sprintf("unpacked=%v", unpacked), func(t *testing.T) {
			run := func(procs int) *Result[uint64] {
				t.Helper()
				old := runtime.GOMAXPROCS(procs)
				t.Cleanup(func() { runtime.GOMAXPROCS(old) })
				cfg := Config{
					Graph: g, IDs: ids, MaxMessageBits: CongestBits(n),
					Source: key.FullSource(), Unpacked: unpacked, Telemetry: true,
				}
				res, err := RunParallel(cfg, factory, 3)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				return res
			}
			want, got := run(1), run(2)
			assertResultsEqual(t, "GOMAXPROCS=2 vs 1", want, got)
			wt, gt := want.Telemetry, got.Telemetry
			if wt.Workers != 3 || gt.Workers != 3 {
				t.Fatalf("telemetry lanes = %d and %d, want the configured 3", wt.Workers, gt.Workers)
			}
			if len(gt.Rounds) != len(wt.Rounds) {
				t.Fatalf("%d round records, want %d", len(gt.Rounds), len(wt.Rounds))
			}
			for r := range wt.Rounds {
				if !slices.Equal(gt.Rounds[r].Staged, wt.Rounds[r].Staged) {
					t.Errorf("round %d staged %v, want %v", r, gt.Rounds[r].Staged, wt.Rounds[r].Staged)
				}
				if !slices.Equal(gt.Rounds[r].Mode, wt.Rounds[r].Mode) {
					t.Errorf("round %d modes %v, want %v", r, gt.Rounds[r].Mode, wt.Rounds[r].Mode)
				}
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
