package sim

import (
	"fmt"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
)

// DefaultMaxRounds caps simulations whose config does not set MaxRounds; it
// is generous relative to the poly(log n) complexities under study, so
// hitting it indicates a livelocked program, not a slow one.
const DefaultMaxRounds = 1 << 20

// Config describes one simulation: the network, identifier assignment,
// randomness regime, bandwidth regime, and termination cap.
type Config struct {
	// Graph is the communication network. Required.
	Graph *graph.Graph
	// IDs assigns the unique identifier of each node; nil means IDs equal
	// node indices. Use the helpers in ids.go for random or adversarial
	// assignments. Must be injective (validated).
	IDs []uint64
	// Source grants randomness; nil runs the network fully
	// deterministically (every NodeCtx.Rand is nil).
	Source randomness.Source
	// DeclaredN is the network size told to the (non-uniform) node
	// programs; 0 means the true size. Values larger than the true size
	// implement the lying-about-n reduction of Theorem 4.3.
	DeclaredN int
	// MaxMessageBits bounds every message's size: 0 means unbounded (the
	// LOCAL model); CongestBits(n) gives the standard CONGEST bound.
	MaxMessageBits int
	// MaxRounds caps execution; 0 means DefaultMaxRounds.
	MaxRounds int
	// KT0 hides neighbor identifiers at time zero (NeighborIDs = nil).
	// The default (false) is the usual KT1 convention, which changes round
	// complexities by at most one round.
	KT0 bool
	// Scheduler selects the engine Execute dispatches to; Auto (the zero
	// value) defers to the package default set by SetDefaultScheduler.
	// Calling Run or RunParallel directly ignores it.
	Scheduler Scheduler
	// Workers is the pool size for the Parallel scheduler; 0 means the
	// package default, falling back to runtime.GOMAXPROCS(0).
	Workers int
	// Unpacked opts the run out of packed bit planes: even when every node
	// program declares PayloadBits() <= 1 (see PayloadBitsDeclarer), the
	// engines keep the full-width []Message planes. Purely a representation
	// lever for A/B benchmarking and the equivalence suite — Results are
	// identical either way.
	Unpacked bool
	// Adversary, when non-nil, injects faults into the run — message drops
	// and delays, crash-stops, edge churn, adversarial stalls — drawing
	// only from the adversary stream of its SimulationKey, so the
	// algorithm's coins are untouched (see adversary.go). The faulted run
	// stays deterministic and scheduler-equivalent, its injections are
	// recorded in Result.Telemetry.Injected, and a zero-budget adversary
	// reproduces the fault-free Result bit for bit.
	Adversary *Adversary
	// Pool, when non-nil, sources the engine's buffer set (planes, arenas,
	// worklists, per-worker staging) from the pool's warm slab for this
	// graph shape, and returns it when the run finishes.
	// Purely an allocation lever — Results are byte-identical warm vs cold.
	// nil defers to the package default (SetDefaultPool), which is unpooled
	// out of the box.
	Pool *EnginePool
	// Telemetry forces telemetry collection for this run regardless of the
	// package-wide SetTelemetry switch — the per-run lever the serving
	// layer uses, where runs of many tenants share one process.
	Telemetry bool
	// Progress, when non-nil, is invoked by the coordinating goroutine at
	// every round boundary with the run's cumulative accounting — the live
	// feed the serving layer streams while a run executes. It must return
	// quickly (it runs on the round's critical path) and must not call back
	// into the engine.
	Progress func(Progress)
}

// Progress is one round-boundary update delivered to Config.Progress.
type Progress struct {
	// Round counts completed rounds; the final update reports the value
	// that becomes Result.Rounds.
	Round int
	// Active is the number of nodes whose Round method ran this round —
	// the entry appended to Result.ActivePerRound.
	Active int
	// Running is the number of nodes still live after the round.
	Running int
	// Messages is the cumulative delivered-message count so far.
	Messages int64
}

// CongestBits returns the standard CONGEST bandwidth bound used throughout
// the experiments: c·⌈log₂(n+1)⌉ bits with c = 8, comfortably enough for a
// constant number of identifiers and counters per message. The ⌈log₂(n+1)⌉
// factor is floored at 6, so the bound never drops below 48 bits and tiny
// test networks still admit constant-size headers (the model's O(log n)
// bound absorbs such constants).
func CongestBits(n int) int {
	bits := 1
	for 1<<bits < n+1 {
		bits++
	}
	if bits < 6 {
		bits = 6
	}
	return 8 * bits
}

// Result carries the outputs and the accounting of one simulation.
type Result[T any] struct {
	// Outputs holds each node's output, indexed by node.
	Outputs []T
	// Rounds is the number of synchronous rounds executed: the maximum,
	// over all nodes, of the number of Round calls the engine made before
	// that node halted. A network whose every node halts in its first
	// Round call reports Rounds == 1 even if no message was ever sent.
	Rounds int
	// ActivePerRound[r] is the number of nodes whose Round method the
	// engine invoked in round r (a node halting in round r still counts as
	// active in r). Its length equals Rounds, and it is identical across
	// schedulers — the live-fringe trajectory the shattering analyses
	// reason about.
	ActivePerRound []int
	// Messages counts non-nil messages delivered.
	Messages int64
	// BitsTotal is the total size of all delivered messages, in bits.
	BitsTotal int64
	// MaxMessageBits is the largest single message observed, in bits.
	MaxMessageBits int
	// Telemetry is the run's scheduling measurement record — per-round
	// per-worker compute times, staged-message counts and delivery-mode
	// choices, plus the adversary's injected events. It is collected when
	// SetTelemetry is enabled, when Config.Telemetry is set, or when the run
	// has an adversary, and is nil otherwise. Unlike every other field its
	// wall-clock content is host- and run-specific, so it is excluded from
	// the scheduler-equivalence guarantees.
	Telemetry *Telemetry
}

// engineState is the engine's per-run substrate. The message plane is flat:
// every per-port quantity lives in a single contiguous array indexed by the
// graph's CSR half-edge index i = off[v] + p ("port p of node v"), so a round
// is one linear sweep over cache-resident buffers, and a run allocates O(1)
// slices instead of O(n). The round loop runs off the active worklist and
// delivery off staged slot lists, so round cost tracks the live fringe, not
// n.
type engineState[T any] struct {
	cfg   Config
	g     *graph.Graph
	n     int
	off   []int64 // CSR offsets, shared with (and owned by) the graph
	adjf  []int32 // CSR flat neighbor array
	rev   []int32 // CSR reverse half-edge table
	progs []NodeProgram[T]
	// active is the worklist of live nodes, in ascending index order; done
	// is its membership bitmap (done[v] ⇔ v is not on the worklist). Each
	// worker owns the contiguous segment of its shard and compacts it in
	// place as nodes halt, so a round costs O(active), not O(n).
	active []int32
	done   []bool
	// inbox[i] is what node v received on port p this round. outbox is the
	// engine-owned scratch exposed to programs as NodeCtx.Outbox, one slot
	// per half-edge.
	inbox  []Message
	outbox []Message
	arena  *arena
	ctxs   []NodeCtx
	// packed marks a run whose planes are bitmaps: every program declared
	// PayloadBits() <= 1 and the config did not opt out. inBits then
	// replaces inbox, and outBitsPlane replaces outbox as the programs' write
	// side (worker 0's out plane; further workers get private ones). The
	// workers' slot lists keep their exact unpacked meaning, so the
	// accounting and the adversary see identical slots.
	packed       bool
	inBits       *bitPlane
	outBitsPlane *bitPlane
	// poison latches the poisoned-Outbox debug setting for this run; see
	// debug.go.
	poison bool
	// tel is the run's telemetry record, nil unless SetTelemetry was
	// enabled when the run started, the config sets Telemetry, or the run
	// has an adversary (see initTelemetry).
	tel *Telemetry
	// adv is the per-run adversary state, nil for fault-free runs.
	adv *advState
	// slab is the buffer set this run draws its planes, worklists and
	// worker staging from; pool, when non-nil, is where release parks it.
	slab *engineSlab
	pool *EnginePool

	running     int
	rounds      int
	activeTrace []int
	messages    int64
	bits        int64
	maxBits     int
}

// newEngineState builds the engine substrate. When every program declares
// PayloadBits() <= 1, the config does not opt out, and the bandwidth bound
// admits the canonical 8-bit wire message (MaxMessageBits 0 or >= 8 — a
// tighter bound would reject even the 1-byte encoding, and the unpacked path
// must be the one to say so), the message planes are allocated as packed
// bitmaps.
//
// Every buffer comes from a slab: a warm one from the run's EnginePool
// (Config.Pool / SetDefaultPool), or a fresh one for unpooled runs. The
// engine entry points must pair a successful call with exactly one
// st.release().
func newEngineState[T any](cfg Config, factory func(v int) NodeProgram[T]) (*engineState[T], error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: config requires a graph")
	}
	n := cfg.Graph.N()
	ids := cfg.IDs
	if ids != nil {
		if len(ids) != n {
			return nil, fmt.Errorf("sim: %d IDs for %d nodes", len(ids), n)
		}
		seen := make(map[uint64]int, n)
		for v, id := range ids {
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("sim: duplicate ID %d at nodes %d and %d", id, prev, v)
			}
			seen[id] = v
		}
	}
	declaredN := cfg.DeclaredN
	if declaredN == 0 {
		declaredN = n
	}
	if declaredN < n {
		return nil, fmt.Errorf("sim: declared size %d below true size %d", declaredN, n)
	}
	off, adjf, rev := cfg.Graph.CSR()
	h := len(adjf) // 2m half-edges
	pool := cfg.Pool
	if pool == nil {
		pool = DefaultPool()
	}
	var slab *engineSlab
	if pool != nil {
		slab = pool.acquire(n, h)
	} else {
		slab = newSlab(n, h)
	}
	st := &engineState[T]{
		cfg:     cfg,
		g:       cfg.Graph,
		n:       n,
		off:     off,
		adjf:    adjf,
		rev:     rev,
		progs:   make([]NodeProgram[T], n),
		poison:  debugOutboxCheck.Load(),
		running: n,
		slab:    slab,
		pool:    pool,
	}
	// The slab is parked clean (see engineSlab), so these come ready to use;
	// contexts and worklist contents are rewritten below.
	st.active = slab.active[:n]
	st.done = slab.done
	st.ctxs = slab.ctxs
	st.arena = &slab.arena
	st.activeTrace = slab.activeTrace
	// Programs are constructed before the planes are allocated so their
	// declared payload widths can pick the plane representation; Init runs
	// afterwards, against fully wired contexts.
	packed := !cfg.Unpacked && n > 0 &&
		(cfg.MaxMessageBits == 0 || cfg.MaxMessageBits >= 8)
	for v := 0; v < n; v++ {
		st.progs[v] = factory(v)
		if packed {
			d, ok := st.progs[v].(PayloadBitsDeclarer)
			if !ok || d.PayloadBits() > 1 || d.PayloadBits() < 0 {
				packed = false
			}
		}
	}
	st.packed = packed
	if packed {
		st.inBits = slab.plane(&slab.inBits)
		st.outBitsPlane = slab.plane(&slab.outBits)
	} else {
		st.inbox = slab.msgPlane(&slab.inbox)
		st.outbox = slab.msgPlane(&slab.outbox)
	}
	if cfg.Adversary != nil {
		st.adv = cfg.Adversary.newState(off, adjf, rev, st.done)
	}
	for v := range st.active {
		st.active[v] = int32(v)
	}
	var shared *randomness.Shared
	if s, ok := cfg.Source.(*randomness.Shared); ok {
		shared = s
	}
	// Neighbor identifiers live in one flat half-edge-indexed array too;
	// each node's view is a subslice.
	var nids []uint64
	if !cfg.KT0 {
		nids = slab.neighborIDs()
		if ids == nil {
			for i, w := range adjf {
				nids[i] = uint64(w)
			}
		} else {
			for i, w := range adjf {
				nids[i] = ids[w]
			}
		}
	}
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		id := uint64(v)
		if ids != nil {
			id = ids[v]
		}
		ctx := &st.ctxs[v]
		*ctx = NodeCtx{
			Index:  v,
			ID:     id,
			Degree: int(hi - lo),
			N:      declaredN,
			Shared: shared,
			arena:  st.arena,
		}
		if packed {
			ctx.packed = true
			ctx.inBits = st.inBits
			ctx.outBits = st.outBitsPlane
			ctx.base = lo
		} else {
			ctx.Outbox = st.outbox[lo:hi:hi]
		}
		if !cfg.KT0 {
			ctx.NeighborIDs = nids[lo:hi:hi]
		}
		if cfg.Source != nil && cfg.Source.Has(v) {
			ctx.Rand = cfg.Source.Stream(v)
		}
		st.progs[v].Init(ctx)
	}
	return st, nil
}

// roundFor invokes node v's compute phase for round r against its
// flat-inbox window. Under the poisoned-Outbox debug check the node's
// Outbox window is pre-filled with the sentinel so unset ports are caught
// when the outbox is consumed. A packed run has neither inbox windows nor
// Outbox — programs read and write the bit planes through the NodeCtx
// accessors, and Round receives a nil inbox.
func (st *engineState[T]) roundFor(v, r int) ([]Message, bool) {
	if st.packed {
		return st.progs[v].Round(r, nil)
	}
	lo, hi := st.off[v], st.off[v+1]
	st.ctxs[v].inboxWin = st.inbox[lo:hi:hi]
	if st.poison {
		poisonWindow(st.outbox[lo:hi])
	}
	return st.progs[v].Round(r, st.inbox[lo:hi:hi])
}

// inboxView returns the adversary boundary's handle on whichever inbox plane
// this run allocated.
func (st *engineState[T]) inboxView() inboxView {
	if st.packed {
		return inboxView{bits: st.inBits}
	}
	return inboxView{msgs: st.inbox}
}

// initTelemetry latches the run's telemetry record (an adversary or
// Config.Telemetry forces collection — the adversary's injected-event record
// is part of the run's reproducibility contract, and the per-run flag is the
// serving layer's lever) and wires it to the adversary state.
func (st *engineState[T]) initTelemetry(sched Scheduler, workers int) {
	st.tel = newTelemetry(sched, workers, st.adv != nil || st.cfg.Telemetry)
	if st.adv != nil {
		st.adv.tel = st.tel
	}
}

func (st *engineState[T]) result() *Result[T] {
	if st.adv != nil {
		st.adv.finish(st.rounds - 1)
	}
	outputs := make([]T, st.n)
	for v := range outputs {
		outputs[v] = st.progs[v].Output()
	}
	trace := st.activeTrace
	if st.pool != nil {
		// The trace grew in pooled slab scratch, which release hands to the
		// next run; the Result must own its copy.
		trace = append([]int(nil), trace...)
	}
	return &Result[T]{
		Outputs:        outputs,
		Rounds:         st.rounds,
		ActivePerRound: trace,
		Messages:       st.messages,
		BitsTotal:      st.bits,
		MaxMessageBits: st.maxBits,
		Telemetry:      st.tel,
	}
}

// Run executes the network on a one-worker pool, inline on the calling
// goroutine: within a round, nodes compute in index order, but — as the model
// requires — every message sent in round r is delivered only at round r+1, so
// the schedule is observationally identical to a fully parallel round. It is
// RunParallel with one worker, except that its telemetry is labeled
// Sequential.
func Run[T any](cfg Config, factory func(v int) NodeProgram[T]) (*Result[T], error) {
	return runPool(cfg, factory, 1, Sequential)
}

// progress delivers one round-boundary update to Config.Progress, if wired.
// Callers invoke it from the coordinating goroutine only, after the round's
// counters (rounds, activeTrace, running, messages) are final.
func (st *engineState[T]) progress() {
	if st.cfg.Progress == nil || len(st.activeTrace) == 0 {
		return
	}
	st.cfg.Progress(Progress{
		Round:    st.rounds,
		Active:   st.activeTrace[len(st.activeTrace)-1],
		Running:  st.running,
		Messages: st.messages,
	})
}

// maxRounds resolves the configured round cap.
func (st *engineState[T]) maxRounds() int {
	if st.cfg.MaxRounds == 0 {
		return DefaultMaxRounds
	}
	return st.cfg.MaxRounds
}
