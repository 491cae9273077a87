package sim

import (
	"fmt"
	mathbits "math/bits"
	"time"

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
	// graph shape and scheduler, and returns it when the run finishes.
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
	// choices — collected only when SetTelemetry is enabled, nil otherwise. Unlike every other field its wall-clock
	// content is host- and run-specific, so it is excluded from the
	// scheduler-equivalence guarantees.
	Telemetry *Telemetry
}

// engineState is the shared substrate of both schedulers. The message
// plane is flat: every per-port quantity lives in a single contiguous array
// indexed by the graph's CSR half-edge index i = off[v] + p ("port p of
// node v"), so a round is one linear sweep over cache-resident buffers
// instead of n small-slice walks, and a run allocates O(1) slices instead
// of O(n). The round loop runs off the active worklist and delivery off
// staged slot lists, so round cost tracks the live fringe, not n.
type engineState[T any] struct {
	cfg   Config
	g     *graph.Graph
	n     int
	off   []int64 // CSR offsets, shared with (and owned by) the graph
	adjf  []int32 // CSR flat neighbor array
	rev   []int32 // CSR reverse half-edge table
	progs []NodeProgram[T]
	// active is the compact worklist of live nodes, in ascending index
	// order; done is its membership bitmap (done[v] ⇔ v is not on the
	// worklist). The round loop iterates active and compacts it in place as
	// nodes halt, so a round costs O(active), not O(n).
	active []int32
	done   []bool
	// inbox[i] is what node v received on port p this round; next[i] is
	// what will arrive there next round. outbox is the engine-owned
	// scratch exposed to programs as NodeCtx.Outbox, one slot per
	// half-edge. Only the sequential round loop double-buffers, so next is
	// allocated lazily by runSequential; RunParallel scatters straight into
	// inbox.
	inbox  []Message
	next   []Message
	outbox []Message
	// staged lists the flat slots written into next this round, and
	// inboxSlots the slots currently non-nil in inbox: delivery touches
	// exactly those slots instead of sweeping all 2m, so it costs
	// O(messages), not O(m). Used by the sequential engine; RunParallel
	// keeps the same pair per worker.
	staged     []int32
	inboxSlots []int32
	arena      *arena
	ctxs       []NodeCtx
	// packed marks a run whose planes are bitmaps: every program declared
	// PayloadBits() <= 1 and the config did not opt out. inBits and nextBits
	// then replace inbox/next, and outBitsPlane replaces outbox as the
	// programs' write side (RunParallel rewires ctxs to per-worker planes).
	// The staged/inboxSlots slot lists keep their exact unpacked meaning, so
	// the accounting and the adversary see identical slots.
	packed       bool
	inBits       *bitPlane
	nextBits     *bitPlane
	outBitsPlane *bitPlane
	// poison latches the poisoned-Outbox debug setting for this run; see
	// debug.go.
	poison bool
	// tel is the run's telemetry record, nil unless SetTelemetry was
	// enabled when the run started (latched by the engine entry points via
	// initTelemetry) or the run has an adversary, which forces collection.
	tel     *Telemetry
	telInit bool
	// adv is the per-run adversary state, nil for fault-free runs.
	adv *advState
	// slab/pool are set on pooled runs: the warm buffer set this run drew
	// its planes and worklists from, returned (scrubbed) by release.
	slab *engineSlab
	pool *EnginePool

	running     int
	rounds      int
	activeTrace []int
	messages    int64
	bits        int64
	maxBits     int
}

// newEngineState builds the shared engine substrate. When every program
// declares PayloadBits() <= 1, the config does not opt out, and the bandwidth
// bound admits the canonical 8-bit wire message (MaxMessageBits 0 or >= 8 — a
// tighter bound would reject even the 1-byte encoding, and the unpacked path
// must be the one to say so), the message planes are allocated as packed
// bitmaps.
//
// sched names the engine that will drive the state; it selects the slab
// shelf when the run is pooled (Config.Pool / SetDefaultPool), in which case
// every buffer below comes warm from the slab instead of make. The engine
// entry points must pair a successful call with exactly one st.release().
func newEngineState[T any](cfg Config, factory func(v int) NodeProgram[T], sched Scheduler) (*engineState[T], error) {
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
		slab = pool.acquire(n, h, sched)
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
	if slab != nil {
		// The slab is parked clean (see engineSlab), so these come ready to
		// use; contexts and worklist contents are rewritten below either way.
		st.active = slab.active[:n]
		st.done = slab.done
		st.ctxs = slab.ctxs
		st.arena = &slab.arena
		st.staged = slab.staged
		st.inboxSlots = slab.inboxSlots
		st.activeTrace = slab.activeTrace
	} else {
		st.active = make([]int32, n)
		st.done = make([]bool, n)
		st.ctxs = make([]NodeCtx, n)
		st.arena = &arena{}
	}
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
	switch {
	case packed && slab != nil:
		st.inBits = slab.plane(&slab.inBits)
		st.outBitsPlane = slab.plane(&slab.outBits)
	case packed:
		st.inBits = newBitPlane(h)
		st.outBitsPlane = newBitPlane(h)
	case slab != nil:
		st.inbox = slab.msgPlane(&slab.inbox)
		st.outbox = slab.msgPlane(&slab.outbox)
	default:
		st.inbox = make([]Message, h)
		st.outbox = make([]Message, h)
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
		if slab != nil {
			nids = slab.neighborIDs()
		} else {
			nids = make([]uint64, h)
		}
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

// step runs the compute phase for node v in round r and stages its outbox
// into neighbors' next-round slots, recording each staged slot and tallying
// the message as it goes. It returns a bandwidth error if v violates the
// CONGEST bound.
func (st *engineState[T]) step(v, r int) error {
	if st.packed {
		return st.stepPacked(v, r)
	}
	out, nodeDone := st.roundFor(v, r)
	lo := st.off[v]
	if deg := int(st.off[v+1] - lo); len(out) > deg {
		return fmt.Errorf("sim: node %d produced %d outbox entries for degree %d", v, len(out), deg)
	}
	for p, msg := range out {
		if msg == nil {
			continue
		}
		if st.poison && isPoison(msg) {
			return &OutboxPortError{Node: v, Round: r, Port: p}
		}
		b := msg.BitLen()
		if st.cfg.MaxMessageBits > 0 && b > st.cfg.MaxMessageBits {
			return &BandwidthError{Node: v, Round: r, Bits: b, Limit: st.cfg.MaxMessageBits}
		}
		i := st.rev[lo+int64(p)]
		if st.adv != nil {
			switch f, d := st.adv.fate(r, i); f {
			case fateDrop:
				st.adv.roundDrops++
				continue
			case fateCut:
				st.adv.roundCuts++
				continue
			case fateDelay:
				st.adv.roundDelays++
				st.adv.held = append(st.adv.held, holdMsg(i, r, d, msg))
				continue
			}
		}
		st.next[i] = msg
		st.staged = append(st.staged, i)
		// Tally at stage time, while the header is hot: a staged message is
		// delivered unconditionally next round (or the run aborts and the
		// counters are never read), so this matches delivery-time tallying.
		st.messages++
		st.bits += int64(b)
		if b > st.maxBits {
			st.maxBits = b
		}
	}
	if nodeDone {
		st.done[v] = true
		st.running--
	}
	return nil
}

// stepPacked is step for packed runs: the program has already written its
// outgoing bits into its out-plane window (BroadcastBit and friends), so the
// engine harvests that window word-at-a-time — per present bit it resolves
// the destination slot through the reverse half-edge table, consults the
// adversary, stages the bit into nextBits and tallies the canonical 8-bit
// message — then clears the window for the node's next round. There is no
// bandwidth or poison check: the representation cannot express a payload
// over 1 bit or an unset port.
func (st *engineState[T]) stepPacked(v, r int) error {
	_, nodeDone := st.progs[v].Round(r, nil)
	lo, hi := st.off[v], st.off[v+1]
	out := st.outBitsPlane
	whi := int((hi - 1) >> 6)
	for w := int(lo >> 6); lo < hi && w <= whi; w++ {
		pw := out.present[w]
		if pw == 0 {
			continue
		}
		base := int64(w) << 6
		if base < lo {
			pw &= ^uint64(0) << (uint(lo) & 63)
		}
		if base+64 > hi {
			pw &= ^uint64(0) >> (63 - uint(hi-1)&63)
		}
		vv := out.value[w]
		for pw != 0 {
			k := mathbits.TrailingZeros64(pw)
			pw &= pw - 1
			i := st.rev[base+int64(k)]
			bit := vv >> uint(k) & 1
			if st.adv != nil {
				switch f, d := st.adv.fate(r, i); f {
				case fateDrop:
					st.adv.roundDrops++
					continue
				case fateCut:
					st.adv.roundCuts++
					continue
				case fateDelay:
					st.adv.roundDelays++
					st.adv.held = append(st.adv.held, holdMsg(i, r, d, bitWire[bit]))
					continue
				}
			}
			st.nextBits.set(i, bit)
			st.staged = append(st.staged, i)
			st.messages++
			st.bits += 8
			if st.maxBits < 8 {
				st.maxBits = 8
			}
		}
	}
	st.outBitsPlane.clearBitRange(lo, hi)
	if nodeDone {
		st.done[v] = true
		st.running--
	}
	return nil
}

// finishRound makes the round's staged messages the next round's inboxes.
// Each slot is staged at most once per round (one sender per reverse
// half-edge) and accounting happened at stage time, so delivery is pure data
// movement; which strategy runs is a locality decision. A dense round —
// staged slots a sizable fraction of the plane — swaps the inbox and next
// planes outright and memclrs the new next (which holds only last round's
// now-dead inboxes). A sparse round walks the staged slot list (after
// clearing last round's inbox slots individually), so a late round with a
// tiny live fringe costs O(messages), not O(m).
func (st *engineState[T]) finishRound() DeliveryMode {
	if st.packed {
		return st.finishRoundPacked()
	}
	mode := DeliverSparse
	if denseDelivery(len(st.staged), len(st.next)) {
		mode = DeliverDense
		st.inbox, st.next = st.next, st.inbox
		clear(st.next)
	} else {
		for _, i := range st.inboxSlots {
			st.inbox[i] = nil
		}
		for _, i := range st.staged {
			st.inbox[i] = st.next[i]
			st.next[i] = nil
		}
	}
	st.inboxSlots, st.staged = st.staged, st.inboxSlots[:0]
	st.rounds++
	return mode
}

// finishRoundPacked is finishRound over bit planes. The density decision uses
// the same shared cut-off but counts the window in words — the unit the dense
// path actually sweeps — so the vectorized swap pays off 64× earlier than on
// Message planes. The dense path swaps the inner slices of the stable inBits/
// nextBits structs (NodeCtx holds plane pointers, which must survive the
// swap) and memclrs both lanes of the new next; the sparse path moves exactly
// the staged bits. Either way the round reports DeliverPacked: the plane
// representation, not the sub-strategy, is what a telemetry reader needs to
// interpret the lane.
func (st *engineState[T]) finishRoundPacked() DeliveryMode {
	if denseDelivery(len(st.staged), st.nextBits.words()) {
		st.inBits.present, st.nextBits.present = st.nextBits.present, st.inBits.present
		st.inBits.value, st.nextBits.value = st.nextBits.value, st.inBits.value
		clear(st.nextBits.present)
		clear(st.nextBits.value)
	} else {
		for _, i := range st.inboxSlots {
			st.inBits.clearSlot(i)
		}
		for _, i := range st.staged {
			st.inBits.set(i, st.nextBits.bit(i))
			st.nextBits.clearSlot(i)
		}
	}
	st.inboxSlots, st.staged = st.staged, st.inboxSlots[:0]
	st.rounds++
	return DeliverPacked
}

// inboxView returns the adversary boundary's handle on whichever inbox plane
// this run allocated.
func (st *engineState[T]) inboxView() inboxView {
	if st.packed {
		return inboxView{bits: st.inBits}
	}
	return inboxView{msgs: st.inbox}
}

// initTelemetry latches the run's telemetry record once (an adversary or
// Config.Telemetry forces collection — the adversary's injected-event record
// is part of the run's reproducibility contract, and the per-run flag is the
// serving layer's lever) and wires it to the adversary state.
func (st *engineState[T]) initTelemetry(sched Scheduler, workers int) {
	if st.telInit {
		return
	}
	st.telInit = true
	st.tel = newTelemetry(sched, workers, st.adv != nil || st.cfg.Telemetry)
	if st.adv != nil {
		st.adv.tel = st.tel
	}
}

// adversaryBoundary runs the adversary's between-round step for the
// sequential engine and folds its late-delivery tallies and crash-stops
// into the engine state.
func (st *engineState[T]) adversaryBoundary(r int) {
	msgs, bits, maxBits, crashed := st.adv.boundary(r, st.active, st.inboxView(),
		func(slot int32) { st.inboxSlots = append(st.inboxSlots, slot) },
		func(v int32) { st.done[v] = true; st.running-- })
	st.messages += msgs
	st.bits += bits
	if maxBits > st.maxBits {
		st.maxBits = maxBits
	}
	if crashed > 0 {
		live := st.active[:0]
		for _, v := range st.active {
			if !st.done[v] {
				live = append(live, v)
			}
		}
		st.active = live
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
	if st.slab != nil {
		// The trace grew in slab scratch, which release hands to the next
		// run; the Result must own its copy.
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

// Run executes the network with the deterministic sequential scheduler:
// within a round, nodes compute in index order, but — as the model requires
// — every message sent in round r is delivered only at round r+1, so the
// schedule is observationally identical to a fully parallel round.
func Run[T any](cfg Config, factory func(v int) NodeProgram[T]) (*Result[T], error) {
	st, err := newEngineState(cfg, factory, Sequential)
	if err != nil {
		return nil, err
	}
	defer st.release()
	return st.runSequential(st.maxRounds())
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

// runSequential is the round loop shared by Run and the degenerate
// single-worker case of RunParallel. It iterates the active worklist —
// compacting it in place as nodes halt — so a late round with a small live
// fringe costs O(active + messages) rather than O(n + m). Under telemetry it
// is one lane: the whole worklist sweep is the round's compute phase.
func (st *engineState[T]) runSequential(maxRounds int) (*Result[T], error) {
	if st.packed {
		if st.nextBits == nil {
			if st.slab != nil {
				st.nextBits = st.slab.plane(&st.slab.nextBits)
			} else {
				st.nextBits = newBitPlane(len(st.adjf))
			}
		}
	} else if st.next == nil {
		if st.slab != nil {
			st.next = st.slab.msgPlane(&st.slab.next)
		} else {
			st.next = make([]Message, len(st.inbox))
		}
	}
	st.initTelemetry(Sequential, 1)
	for r := 0; len(st.active) > 0; r++ {
		if r >= maxRounds {
			return nil, &StuckError{MaxRounds: maxRounds, Running: st.running}
		}
		activeN := len(st.active)
		if st.adv != nil {
			// Stalled nodes stay live but are denied the round: their Round
			// method is not invoked, so they do not count as active.
			activeN -= st.adv.stalledCount()
		}
		st.activeTrace = append(st.activeTrace, activeN)
		if r > 0 {
			// No rotation before round 0: payloads carved during Init share
			// the first buffer with round 0's and live just as long.
			st.arena.rotate()
		}
		var roundStart time.Time
		if st.tel != nil {
			roundStart = time.Now()
		}
		live := st.active[:0]
		for _, v := range st.active {
			if st.adv != nil && st.adv.stalled[v] {
				live = append(live, v)
				continue
			}
			if err := st.step(int(v), r); err != nil {
				return nil, err
			}
			if !st.done[v] {
				live = append(live, v)
			}
		}
		st.active = live
		if st.tel != nil {
			computeNS := time.Since(roundStart).Nanoseconds()
			stagedN := len(st.staged)
			if st.adv != nil {
				// The staged lane counts what programs emitted, including
				// what the adversary then dropped, cut or held.
				stagedN += st.adv.roundDrops + st.adv.roundCuts + st.adv.roundDelays
			}
			mode := st.finishRound()
			st.tel.recordRound(time.Since(roundStart).Nanoseconds(),
				[]int64{computeNS}, []int{stagedN}, []DeliveryMode{mode})
		} else {
			st.finishRound()
		}
		if st.adv != nil {
			st.adversaryBoundary(r)
		}
		st.progress()
	}
	return st.result(), nil
}
