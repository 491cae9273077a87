package sim

import (
	"fmt"
	mathbits "math/bits"
	"runtime"
	"slices"
	"sync"
	"time"
)

// stagedMsg is one message in flight between the compute and scatter phases
// of a round: the flat half-edge index of the destination slot (the
// reverse half-edge of the sending port) and the payload.
type stagedMsg struct {
	idx int32
	msg Message
}

// parallelWorker is the per-shard state of one pool worker. Each worker owns
// the contiguous node range [lo, hi) — and with it the contiguous half-edge
// window off[lo]:off[hi] of the flat message plane: only the owner calls
// those nodes' Round methods, writes their done flags, and delivers into
// their inbox slots, so no field here or in engineState is ever written by
// two goroutines.
type parallelWorker struct {
	lo, hi int
	// active is the shard's segment of the engine worklist — its live nodes
	// in ascending order, compacted in place as nodes halt; activeN counts
	// the nodes that computed this round, for the Result's ActivePerRound.
	active  []int32
	activeN int
	// arena is the shard's per-round payload arena (see arena.go); it is
	// rotated at the top of each compute phase, which recycles the buffer
	// whose payloads were read in the previous round.
	arena *arena
	// outbox[s] is the lane staging the messages this worker's nodes
	// addressed to nodes of shard s during the compute phase; shard s
	// applies them during the scatter phase. Each lane is sized once per
	// run (sizeLanes) and truncated, not freed, across rounds.
	outbox [][]stagedMsg
	// Packed-run counterparts (nil on unpacked runs). out is this worker's
	// full-length out plane — its nodes' NodeCtx.outBits, the engine's own
	// for worker 0 and a private one for every other — harvested and
	// cleared inside the compute phase, so workers never write a shared
	// word. pout[s] stages the packed messages addressed to shard s's word
	// range as slot|bit<<31 entries; wlo/whi is this shard's exclusive word
	// window [wlo, whi) of the inbox plane (word-rounded shard bounds, see
	// graph.ShardWordBounds), which makes the packed scatter race-free
	// without atomics even though adjacent shards' slot ranges share
	// boundary words.
	out      *bitPlane
	pout     [][]uint32
	wlo, whi int
	// inboxSlots lists the slots of this shard's inbox window that are
	// currently non-nil, so a sparse scatter phase clears and refills
	// exactly the touched slots instead of sweeping the whole window.
	// denseInbox records that the previous scatter took the dense path —
	// it delivered without recording slots, so the next clear must memclr
	// the whole window.
	inboxSlots []int32
	denseInbox bool
	// Per-round partial counters, merged by the coordinator in worker order
	// after the scatter barrier. Sums and max are order-independent, so the
	// merged totals do not depend on the worker count.
	msgs    int64
	bits    int64
	maxBits int
	halted  int
	// Per-round adversary accumulators (fault-free runs never touch them):
	// counts of messages the adversary dropped, cut or held from this
	// shard's senders, and the held entries themselves, merged by the
	// coordinator before the round boundary.
	drops  int
	cuts   int
	delays int
	held   []heldMsg
	// computeNS is the wall time of this worker's last compute phase,
	// measured only when the run records telemetry.
	computeNS int64
	// err is the shard's first error by node index. Shards are contiguous
	// and worker i owns range i, so the first erroring worker in pool order
	// holds the error of the lowest-indexed erroring node, whatever the
	// width.
	err error
}

const (
	phaseCompute = iota
	phaseScatter
)

type phaseCmd struct {
	phase int
	round int
}

// run executes one phase command on this worker (self is its pool index).
func (w *parallelWorker) run(st *engineStateCore, c phaseCmd, self int, pool []*parallelWorker) {
	switch c.phase {
	case phaseCompute:
		if st.timed {
			start := time.Now()
			w.compute(st, c.round)
			w.computeNS = time.Since(start).Nanoseconds()
		} else {
			w.compute(st, c.round)
		}
	case phaseScatter:
		if st.packed {
			w.scatterPacked(st, self, pool)
		} else {
			w.scatter(st, self, pool)
		}
	}
}

// compute runs the compute half of round r for every node on the shard's
// worklist, staging outgoing messages into per-destination-shard outboxes
// and compacting the worklist as nodes halt.
func (w *parallelWorker) compute(st *engineStateCore, r int) {
	w.msgs, w.bits, w.maxBits, w.halted = 0, 0, 0, 0
	w.drops, w.cuts, w.delays, w.held = 0, 0, 0, w.held[:0]
	w.err = nil
	if r > 0 {
		// Not before round 0: Init-time carves (which land in the engine
		// arena, wired before the shards override it) and round-0 carves
		// must both survive into round 1.
		w.arena.rotate()
	}
	for s := range w.outbox {
		w.outbox[s] = w.outbox[s][:0]
	}
	for s := range w.pout {
		w.pout[s] = w.pout[s][:0]
	}
	w.activeN = len(w.active)
	live := w.active[:0]
	for _, v32 := range w.active {
		v := int(v32)
		if st.adv != nil && st.adv.stalled[v] {
			// Denied the round by the adversarial scheduler: stays live,
			// does not compute, does not count as active.
			w.activeN--
			live = append(live, v32)
			continue
		}
		out, nodeDone := st.round(v, r)
		if st.packed {
			// The program wrote its bits into this worker's private out
			// plane; harvest them into the per-destination-shard staging
			// lists (no bandwidth/poison/degree checks — the representation
			// cannot express a violation).
			w.stagePacked(st, v, r)
			if nodeDone {
				st.done[v] = true
				w.halted++
			} else {
				live = append(live, v32)
			}
			continue
		}
		lo := st.off[v]
		if deg := int(st.off[v+1] - lo); len(out) > deg {
			if w.err == nil {
				w.err = fmt.Errorf("sim: node %d produced %d outbox entries for degree %d", v, len(out), deg)
			}
			live = append(live, v32)
			continue
		}
		for p, msg := range out {
			if msg == nil {
				continue
			}
			if st.poison && isPoison(msg) {
				if w.err == nil {
					w.err = &OutboxPortError{Node: v, Round: r, Port: p}
				}
				break
			}
			b := msg.BitLen()
			if st.maxMessageBits > 0 && b > st.maxMessageBits {
				if w.err == nil {
					w.err = &BandwidthError{Node: v, Round: r, Bits: b, Limit: st.maxMessageBits}
				}
				break
			}
			i := lo + int64(p)
			if st.adv != nil {
				switch f, d := st.adv.fate(r, st.rev[i]); f {
				case fateDrop:
					w.drops++
					continue
				case fateCut:
					w.cuts++
					continue
				case fateDelay:
					w.delays++
					w.held = append(w.held, holdMsg(st.rev[i], r, d, msg))
					continue
				}
			}
			s := int32(0)
			if st.shardOf != nil {
				s = st.shardOf[st.adj[i]]
			}
			w.outbox[s] = append(w.outbox[s], stagedMsg{idx: st.rev[i], msg: msg})
			// Tally at stage time, while the header is hot: the counters
			// merge order-independently across workers, so totals do not
			// depend on the worker count.
			w.msgs++
			w.bits += int64(b)
			if b > w.maxBits {
				w.maxBits = b
			}
		}
		if nodeDone {
			st.done[v] = true
			w.halted++
		} else {
			live = append(live, v32)
		}
	}
	w.active = live
}

// scatter delivers every message addressed to this shard — gathered from all
// workers' outboxes — straight into the shard's inbox window, after clearing
// what the previous round delivered into it. Accounting happened at stage
// time, so the phase is pure data movement, and which strategy runs is an
// adaptive locality decision made per shard per round: a dense round
// (messages a sizable fraction of the window) skips slot bookkeeping and
// relies on a whole-window memclr, which the runtime vectorizes, while a
// sparse round walks exactly the touched slots, so a shattering tail costs
// O(messages touching the shard), not O(half-edges of the shard).
func (w *parallelWorker) scatter(st *engineStateCore, self int, workers []*parallelWorker) {
	if w.denseInbox {
		clear(st.inbox[st.off[w.lo]:st.off[w.hi]])
	} else {
		for _, i := range w.inboxSlots {
			st.inbox[i] = nil
		}
	}
	w.inboxSlots = w.inboxSlots[:0]
	total := 0
	for _, src := range workers {
		total += len(src.outbox[self])
	}
	if w.denseInbox = denseDelivery(total, int(st.off[w.hi]-st.off[w.lo])); w.denseInbox {
		for _, src := range workers {
			for _, sm := range src.outbox[self] {
				st.inbox[sm.idx] = sm.msg
			}
		}
		return
	}
	for _, src := range workers {
		for _, sm := range src.outbox[self] {
			st.inbox[sm.idx] = sm.msg
			w.inboxSlots = append(w.inboxSlots, sm.idx)
		}
	}
}

// stagePacked harvests node v's freshly written out-plane window: per present
// bit it resolves the destination slot, consults the adversary, routes the
// bit to the shard owning the destination's *word* (st.wordShardOf — word
// ownership, not node ownership, is what keeps the packed scatter race-free)
// and tallies the canonical 8-bit message; then clears the window. There is
// no bandwidth or poison check: the representation cannot express a payload
// over 1 bit or an unset port.
func (w *parallelWorker) stagePacked(st *engineStateCore, v, r int) {
	lo, hi := st.off[v], st.off[v+1]
	if lo == hi {
		return
	}
	out := w.out
	whi := int((hi - 1) >> 6)
	for wd := int(lo >> 6); wd <= whi; wd++ {
		pw := out.present[wd]
		if pw == 0 {
			continue
		}
		base := int64(wd) << 6
		if base < lo {
			pw &= ^uint64(0) << (uint(lo) & 63)
		}
		if base+64 > hi {
			pw &= ^uint64(0) >> (63 - uint(hi-1)&63)
		}
		vv := out.value[wd]
		for pw != 0 {
			k := mathbits.TrailingZeros64(pw)
			pw &= pw - 1
			i := st.rev[base+int64(k)]
			bit := vv >> uint(k) & 1
			if st.adv != nil {
				switch f, d := st.adv.fate(r, i); f {
				case fateDrop:
					w.drops++
					continue
				case fateCut:
					w.cuts++
					continue
				case fateDelay:
					w.delays++
					w.held = append(w.held, holdMsg(i, r, d, bitWire[bit]))
					continue
				}
			}
			s := int32(0)
			if st.wordShardOf != nil {
				s = st.wordShardOf[i>>6]
			}
			w.pout[s] = append(w.pout[s], uint32(i)|uint32(bit)<<31)
			w.msgs++
			w.bits += 8
			if w.maxBits < 8 {
				w.maxBits = 8
			}
		}
	}
	out.clearBitRange(lo, hi)
}

// scatterPacked is scatter over the packed inbox plane: the worker clears its
// exclusive word window [wlo, whi) — whole-window memclr after a dense round,
// staged-slot walk after a sparse one — then ORs in every bit addressed to
// it. The density decision is the same shared cut-off as everywhere else,
// counted in words (the unit the dense memclr sweeps).
func (w *parallelWorker) scatterPacked(st *engineStateCore, self int, workers []*parallelWorker) {
	ib := st.inBits
	if w.denseInbox {
		ib.clearWords(w.wlo, w.whi)
	} else {
		for _, i := range w.inboxSlots {
			ib.clearSlot(i)
		}
	}
	w.inboxSlots = w.inboxSlots[:0]
	total := 0
	for _, src := range workers {
		total += len(src.pout[self])
	}
	if w.denseInbox = denseDelivery(total, w.whi-w.wlo); w.denseInbox {
		for _, src := range workers {
			for _, pm := range src.pout[self] {
				ib.set(int32(pm&0x7fffffff), uint64(pm>>31))
			}
		}
		return
	}
	for _, src := range workers {
		for _, pm := range src.pout[self] {
			slot := int32(pm & 0x7fffffff)
			ib.set(slot, uint64(pm>>31))
			w.inboxSlots = append(w.inboxSlots, slot)
		}
	}
}

// engineStateCore is the type-independent slice of engineState the workers
// need; keeping it non-generic lets the phase methods live on plain structs.
type engineStateCore struct {
	off            []int64 // CSR offsets
	adj            []int32 // CSR flat neighbor array
	rev            []int32 // CSR reverse half-edge table
	done           []bool
	inbox          []Message // flat half-edge-indexed message plane
	shardOf        []int32
	maxMessageBits int
	// Packed-run fields (zero on unpacked runs): the packed inbox plane and
	// the word-ownership table — wordShardOf[wd] is the shard whose scatter
	// phase owns word wd of the plane. Packed staging routes by it, not by
	// shardOf: the two disagree exactly on the boundary slots a word-rounded
	// cut shifted to the lower shard.
	packed      bool
	inBits      *bitPlane
	wordShardOf []int32
	poison      bool // poisoned-Outbox debug check (see debug.go)
	// timed is set when the run records telemetry; only then do the workers
	// read the clock around their compute phase.
	timed bool
	// adv is the run's adversary state (nil when fault-free). Workers call
	// only its pure fate hash and read stalled flags, both stable within a
	// round; every mutation happens at the coordinator's round boundary.
	adv   *advState
	round func(v, r int) ([]Message, bool)
}

// RunParallel executes the network with the sharded worker-pool engine:
// nodes are partitioned into `workers` contiguous shards of near-equal
// half-edge count (graph.ShardBounds — equal node counts would let one
// hub-heavy shard of a power-law graph dominate every barrier), and a fixed
// pool of `workers` goroutines (default runtime.GOMAXPROCS(0) when
// workers <= 0, clamped to the node count) drives each round in two
// barrier-separated phases. In the compute phase every worker runs its
// shard's live worklist against the current inboxes and stages outgoing
// messages into a per-destination-shard lane; in the scatter phase every
// worker delivers the messages addressed to its shard into its window of the
// engine's flat inbox array. Worklists and staged-slot delivery make a late
// round cost O(active + messages) rather than O(n + m), and no per-node
// goroutines or per-edge channels are allocated, so the engine scales to
// million-node graphs. A one-worker pool runs both phases inline on the
// calling goroutine, with no goroutine, channel or barrier: that is Run.
//
// The cut and the pool width are fixed for the whole run: worker i owns
// range i of the initial cut from the first round to the last, whatever the
// host's processor count. Per round and per shard, the scatter phase chooses
// between a staged-slot walk and a whole-window memclr by comparing message
// count against window size (denseDelivery), so dense all-active rounds take
// the vectorized sweep and sparse tail rounds touch only live slots. That
// choice depends only on the Config and the worker count, so the telemetry's
// per-lane staged counts and delivery modes are as reproducible as the
// Result.
//
// Every mutable location has a single writer (the shard owner), phases are
// separated by barriers, and counters merge over order-independent sums and
// maxima, so for a given Config and seed the Result — outputs, rounds,
// active trajectory, message count, bit total, and max message size — is
// identical for every worker count. The test suite holds every width to an
// independent reference engine, fault-free and under the adversary.
func RunParallel[T any](cfg Config, factory func(v int) NodeProgram[T], workers int) (*Result[T], error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runPool(cfg, factory, workers, Parallel)
}

// runPool is the round loop behind Run and RunParallel; sched only labels
// the telemetry.
func runPool[T any](cfg Config, factory func(v int) NodeProgram[T], workers int, sched Scheduler) (*Result[T], error) {
	st, err := newEngineState(cfg, factory)
	if err != nil {
		return nil, err
	}
	defer st.release()
	workers = min(workers, st.n)
	if workers == 0 {
		// The empty network halts before its first round.
		st.initTelemetry(sched, 1)
		return st.result(), nil
	}
	st.initTelemetry(sched, workers)
	maxRounds := st.maxRounds()

	// Contiguous shards balanced by half-edge count: worker i owns
	// [bounds[i], bounds[i+1]) and the matching segment of the engine
	// worklist. The workers and ownership tables come from the slab — the
	// structure (arenas, staging capacity, private out planes) survives
	// between pooled runs; everything content-like is rewired below. Worker
	// 0 runs on the engine arena and out plane the contexts were wired to at
	// Init, so a one-worker run rewires no context.
	bounds := []int{0, st.n}
	if workers > 1 {
		bounds = st.g.ShardBounds(workers)
	}
	pool := st.slab.parWorkers(workers, st.packed)
	core := &engineStateCore{
		off:            st.off,
		adj:            st.adjf,
		rev:            st.rev,
		done:           st.done,
		inbox:          st.inbox,
		maxMessageBits: cfg.MaxMessageBits,
		poison:         st.poison,
		timed:          st.tel != nil,
		adv:            st.adv,
		round:          st.roundFor,
		packed:         st.packed,
		inBits:         st.inBits,
	}
	if workers > 1 {
		core.shardOf = st.slab.shardTable()
	}
	for i, w := range pool {
		w.lo, w.hi = bounds[i], bounds[i+1]
		w.wlo, w.whi = 0, 0
		w.active = st.active[w.lo:w.hi:w.hi]
		if workers == 1 {
			break
		}
		for v := w.lo; v < w.hi; v++ {
			core.shardOf[v] = int32(i)
			st.ctxs[v].arena = w.arena
			if st.packed {
				st.ctxs[v].outBits = w.out
			}
		}
	}
	// Word-rounded scatter windows: worker s holds the exclusive word range
	// [wlo, whi) of the packed inbox plane (graph.ShardWordBounds), so
	// adjacent shards whose slot ranges share a boundary word never write
	// the same word concurrently.
	if st.packed {
		if workers == 1 {
			pool[0].whi = st.inBits.words()
		} else {
			core.wordShardOf = st.slab.wordShardTable(st.inBits.words())
			wb := st.g.ShardWordBounds(bounds)
			for s, w := range pool {
				w.wlo, w.whi = wb[s], wb[s+1]
				for wd := w.wlo; wd < w.whi; wd++ {
					core.wordShardOf[wd] = int32(s)
				}
			}
		}
	}
	sizeLanes(core, pool)

	// Worker s owns range s of the cut, so pool order is node-range order,
	// and everything that must replay node order — counter merges, held
	// messages, the live gather feeding the adversary — walks the pool in
	// order. runPhase runs one phase on every worker and returns when all
	// have finished it.
	runPhase := func(c phaseCmd) { pool[0].run(core, c, 0, pool) }
	stop := func() {}
	if workers > 1 {
		cmds := make([]chan phaseCmd, workers)
		for i := range cmds {
			cmds[i] = make(chan phaseCmd, 1)
		}
		var barrier, lifetime sync.WaitGroup
		lifetime.Add(workers)
		for i, w := range pool {
			go func(i int, w *parallelWorker) {
				defer lifetime.Done()
				for c := range cmds[i] {
					w.run(core, c, i, pool)
					barrier.Done()
				}
			}(i, w)
		}
		// The WaitGroup plus the command-channel sends give the scatter
		// phase a happens-before view of every worker's staged lanes (and of
		// every coordinator mutation since the last barrier).
		runPhase = func(c phaseCmd) {
			barrier.Add(workers)
			for _, ch := range cmds {
				ch <- c
			}
			barrier.Wait()
		}
		stop = func() {
			for i := range cmds {
				close(cmds[i])
			}
			lifetime.Wait()
		}
	}
	defer stop()

	var computeScratch []int64
	var stagedScratch []int
	var modeScratch []DeliveryMode
	if st.tel != nil {
		computeScratch = make([]int64, workers)
		stagedScratch = make([]int, workers)
		modeScratch = make([]DeliveryMode, workers)
	}
	// advLive gathers the live worklist for adversaries that crash or stall
	// nodes; reused across rounds.
	var advLive []int32

	for r := 0; st.running > 0; r++ {
		if r >= maxRounds {
			return nil, &StuckError{MaxRounds: maxRounds, Running: st.running}
		}
		var roundStart time.Time
		if core.timed {
			roundStart = time.Now()
		}
		runPhase(phaseCmd{phase: phaseCompute, round: r})
		// The pool ascends by node range, so the first erroring worker holds
		// the error of the lowest-indexed erroring node. Surface it before
		// any of the round's deliveries are tallied.
		for _, w := range pool {
			if w.err != nil {
				return nil, w.err
			}
		}
		runPhase(phaseCmd{phase: phaseScatter, round: r})
		activeN := 0
		for _, w := range pool {
			activeN += w.activeN
			st.running -= w.halted
			st.messages += w.msgs
			st.bits += w.bits
			if w.maxBits > st.maxBits {
				st.maxBits = w.maxBits
			}
			if st.adv != nil {
				st.adv.mergeRound(w.drops, w.cuts, w.delays, w.held)
			}
		}
		st.activeTrace = append(st.activeTrace, activeN)
		st.rounds++
		if core.timed {
			for wi, w := range pool {
				computeScratch[wi] = w.computeNS
				// The staged lane counts what the shard's programs emitted,
				// including what the adversary then dropped, cut or held.
				stagedScratch[wi] = int(w.msgs) + w.drops + w.cuts + w.delays
				switch {
				case st.packed:
					modeScratch[wi] = DeliverPacked
				case w.denseInbox:
					modeScratch[wi] = DeliverDense
				default:
					modeScratch[wi] = DeliverSparse
				}
			}
			st.tel.recordRound(time.Since(roundStart).Nanoseconds(), computeScratch, stagedScratch, modeScratch)
		}
		if st.adv != nil {
			// Round boundary: all workers are parked, so the adversary's
			// inbox writes, crash-stops and stall picks are single-threaded;
			// the next phase commands publish them to the pool.
			var live []int32
			if st.adv.cfg.CrashPerRound > 0 || st.adv.cfg.StallPerRound > 0 {
				advLive = advLive[:0]
				for _, w := range pool {
					advLive = append(advLive, w.active...)
				}
				live = advLive
			}
			msgs, bits, maxBits, crashed := st.adv.boundary(r, live, st.inboxView(),
				func(slot int32) {
					owner := pool[0]
					switch {
					case core.wordShardOf != nil:
						owner = pool[core.wordShardOf[slot>>6]]
					case core.shardOf != nil:
						owner = pool[core.shardOf[st.adjf[st.rev[slot]]]]
					}
					if !owner.denseInbox {
						owner.inboxSlots = append(owner.inboxSlots, slot)
					}
				},
				func(v int32) {
					st.done[v] = true
					st.running--
				})
			st.messages += msgs
			st.bits += bits
			if maxBits > st.maxBits {
				st.maxBits = maxBits
			}
			if crashed > 0 {
				for _, w := range pool {
					liveSeg := w.active[:0]
					for _, v := range w.active {
						if !st.done[v] {
							liveSeg = append(liveSeg, v)
						}
					}
					w.active = liveSeg
				}
			}
		}
		st.progress()
	}
	return st.result(), nil
}

// sizeLanes gives every staging lane the capacity of the half-edges it can
// receive in one round, so no lane grows by append. A slot is staged at most
// once per round (one sender per reverse half-edge), so one worker's single
// lane needs h; with k workers one pass over the half-edges counts, per
// sender shard, the slots routed to each destination shard — by receiving
// node on Message planes, by owning word on packed ones, exactly as the
// compute phase routes them.
func sizeLanes(core *engineStateCore, pool []*parallelWorker) {
	if len(pool) == 1 {
		h := int(core.off[len(core.off)-1])
		if core.packed {
			pool[0].pout[0] = slices.Grow(pool[0].pout[0], h)
		} else {
			pool[0].outbox[0] = slices.Grow(pool[0].outbox[0], h)
		}
		return
	}
	counts := make([]int, len(pool))
	for _, w := range pool {
		clear(counts)
		for i := core.off[w.lo]; i < core.off[w.hi]; i++ {
			if core.packed {
				counts[core.wordShardOf[core.rev[i]>>6]]++
			} else {
				counts[core.shardOf[core.adj[i]]]++
			}
		}
		for s, c := range counts {
			if core.packed {
				w.pout[s] = slices.Grow(w.pout[s], c)
			} else {
				w.outbox[s] = slices.Grow(w.outbox[s], c)
			}
		}
	}
}
