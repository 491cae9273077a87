package sim

import (
	"fmt"
	mathbits "math/bits"
	"runtime"
	"slices"
	"sync"
	"time"
)

// parallelWorker is the per-shard state of one pool worker. Each worker owns
// the contiguous node range [lo, hi) — only the owner calls those nodes'
// Round methods and writes their done flags — and the exclusive word window
// [wlo, whi) of the inbox plane, into which only the owner delivers, so no
// field here or in engineStateCore is ever written by two goroutines.
type parallelWorker struct {
	lo, hi int
	// active is the shard's segment of the engine worklist — its live nodes
	// in ascending order, compacted in place as nodes halt; activeN counts
	// the nodes that computed this round, for the Result's ActivePerRound.
	active  []int32
	activeN int
	// wire is what the shard's contexts point at: its arena (see arena.go),
	// rotated at the top of each compute phase, which recycles the buffer
	// whose payloads were read in the previous round; the inbox planes; and,
	// on packed runs, the worker's out plane — the engine's own for worker 0
	// and a private one for every other — harvested and cleared inside the
	// compute phase, so workers never write a shared word.
	wire *wire
	// lanes[s] stages, during the compute phase, the messages this worker's
	// nodes addressed to the word window of shard s; shard s delivers them
	// during the scatter phase. An entry is a uint32 on either plane kind:
	// the sender's half-edge index on Message planes (scatter copies the
	// out plane's entry to the reverse slot), the destination slot with the
	// payload bit at bit 31 on packed ones. Each lane is sized once per run
	// (sizeLanes) and truncated, not freed, across rounds.
	lanes [][]uint32
	// wlo/whi is this shard's exclusive word window [wlo, whi) of the inbox
	// plane — word-rounded shard bounds (graph.ShardWordBounds), 64 slots a
	// word on either plane kind — which makes scatter race-free without
	// atomics even on packed planes, where adjacent shards' slot ranges
	// share boundary words.
	wlo, whi int
	// inboxSlots lists the slots of this shard's inbox window that are
	// currently occupied, so a sparse scatter phase clears and refills
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
		w.scatter(st, self, pool)
	}
}

// compute runs the compute half of round r for every node on the shard's
// worklist, staging outgoing messages into per-destination-shard lanes and
// compacting the worklist as nodes halt.
func (w *parallelWorker) compute(st *engineStateCore, r int) {
	w.msgs, w.bits, w.maxBits, w.halted = 0, 0, 0, 0
	w.drops, w.cuts, w.delays, w.held = 0, 0, 0, w.held[:0]
	w.err = nil
	if r > 0 {
		// Not before round 0: Init-time carves (which land in the engine
		// arena, wired before the shards override it) and round-0 carves
		// must both survive into round 1.
		w.wire.arena.rotate()
	}
	for s := range w.lanes {
		w.lanes[s] = w.lanes[s][:0]
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
		// The node's slot window comes from its context, read before Round
		// so that the context's line is fetched alongside the program's
		// rather than after it.
		c := &st.ctxs[v]
		lo, hi := c.base, c.base+int64(c.Degree)
		out, nodeDone := st.round(v, r)
		if st.packed {
			// The program wrote its bits into this worker's private out
			// plane; harvest them into the per-destination-shard lanes (no
			// bandwidth/poison/degree checks — the representation cannot
			// express a violation).
			w.stagePacked(st, lo, hi, r)
		} else if !w.stage(st, v, r, out) {
			live = append(live, v32)
			continue
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

// stage checks node v's returned outbox and stages each message as its
// sender half-edge index; scatter reads the payload back from the out plane.
// A returned slice other than the node's Outbox window is first copied into
// the window, so the out plane holds what the program sent either way. It
// reports false, with w.err set, when the outbox is longer than the degree.
func (w *parallelWorker) stage(st *engineStateCore, v, r int, out []Message) bool {
	lo := st.off[v]
	if deg := int(st.off[v+1] - lo); len(out) > deg {
		if w.err == nil {
			w.err = fmt.Errorf("sim: node %d produced %d outbox entries for degree %d", v, len(out), deg)
		}
		return false
	}
	win := st.outbox[lo : lo+int64(len(out))]
	if len(out) > 0 && &out[0] != &win[0] {
		copy(win, out)
	}
	for p, msg := range win {
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
		slot := st.rev[i]
		if st.adv != nil && w.lost(st, r, slot, msg) {
			continue
		}
		w.push(st, slot, uint32(i), b)
	}
	return true
}

// stagePacked harvests a node's freshly written window [lo, hi) of the
// worker's out plane — [base, base+Degree) from its context, not off[v],
// whose line the step would otherwise fetch for nothing: per present bit it
// resolves the destination slot, consults the adversary and stages
// slot|bit<<31, then clears the window. A window without a present bit needs
// no clear, since value ⊆ present. There is no bandwidth or poison check:
// the representation cannot express a payload over 1 bit or an unset port.
func (w *parallelWorker) stagePacked(st *engineStateCore, lo, hi int64, r int) {
	if lo == hi {
		return
	}
	out := w.wire.out
	var sent uint64
	whi := int((hi - 1) >> 6)
	for wd := int(lo >> 6); wd <= whi; wd++ {
		pw := out[wd].present
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
		sent |= pw
		vv := out[wd].value
		for pw != 0 {
			k := mathbits.TrailingZeros64(pw)
			pw &= pw - 1
			slot := st.rev[base+int64(k)]
			bit := vv >> uint(k) & 1
			if st.adv != nil && w.lost(st, r, slot, bitWire[bit]) {
				continue
			}
			w.push(st, slot, uint32(slot)|uint32(bit)<<31, 8)
		}
	}
	if sent != 0 {
		out.clearBitRange(lo, hi)
	}
}

// lost applies the adversary's fate to a message bound for slot: it reports
// whether the message was dropped, cut or held (a held message keeps its own
// copy of the payload), counting it either way.
func (w *parallelWorker) lost(st *engineStateCore, r int, slot int32, msg Message) bool {
	switch f, d := st.adv.fate(r, slot); f {
	case fateDrop:
		w.drops++
	case fateCut:
		w.cuts++
	case fateDelay:
		w.delays++
		w.held = append(w.held, holdMsg(slot, r, d, msg))
	default:
		return false
	}
	return true
}

// push appends a lane entry to the lane of the shard owning slot's word and
// tallies the b-bit message. Tallying at stage time, while the header is
// hot, is safe because the counters merge order-independently across
// workers, so totals do not depend on the worker count.
func (w *parallelWorker) push(st *engineStateCore, slot int32, entry uint32, b int) {
	s := int32(0)
	if st.wordShardOf != nil {
		s = st.wordShardOf[slot>>6]
	}
	w.lanes[s] = append(w.lanes[s], entry)
	w.msgs++
	w.bits += int64(b)
	if b > w.maxBits {
		w.maxBits = b
	}
}

// scatter delivers every message addressed to this shard — gathered from all
// workers' lanes — straight into the shard's word window of the inbox plane,
// after clearing what the previous round delivered into it. Accounting
// happened at stage time, so the phase is pure data movement, and which
// strategy runs is an adaptive locality decision made per shard per round:
// a dense round (messages a sizable fraction of the window) skips slot
// bookkeeping and relies on a whole-window memclr, which the runtime
// vectorizes, while a sparse round walks exactly the touched slots, so a
// shattering tail costs O(messages touching the shard), not O(half-edges of
// the shard). Both plane kinds take this one path; only the per-lane write
// loop (deliverMsgs or deliverBits) is chosen by plane kind.
func (w *parallelWorker) scatter(st *engineStateCore, self int, workers []*parallelWorker) {
	in := st.in
	if w.denseInbox {
		in.clearWords(w.wlo, w.whi)
	} else {
		in.clearSlots(w.inboxSlots)
	}
	w.inboxSlots = w.inboxSlots[:0]
	total := 0
	for _, src := range workers {
		total += len(src.lanes[self])
	}
	w.denseInbox = denseDelivery(total, in.window(w.wlo, w.whi))
	record := !w.denseInbox
	for _, src := range workers {
		if st.packed {
			w.inboxSlots = deliverBits(in.bits, src.lanes[self], w.inboxSlots, record)
		} else {
			w.inboxSlots = deliverMsgs(in.msgs, st.outbox, st.rev, src.lanes[self], w.inboxSlots, record)
		}
	}
}

// deliverMsgs copies the out-plane message of every staged sender half-edge i
// into its reverse slot, appending the slots to slots when record is set.
func deliverMsgs(inbox, outbox []Message, rev []int32, lane []uint32, slots []int32, record bool) []int32 {
	if !record {
		for _, i := range lane {
			inbox[rev[i]] = outbox[i]
		}
		return slots
	}
	for _, i := range lane {
		slot := rev[i]
		inbox[slot] = outbox[i]
		slots = append(slots, slot)
	}
	return slots
}

// deliverBits ORs every staged slot|bit<<31 entry into the packed inbox
// plane, appending the slots to slots when record is set.
func deliverBits(ib bitPlane, lane []uint32, slots []int32, record bool) []int32 {
	if !record {
		for _, e := range lane {
			ib.set(int32(e&0x7fffffff), uint64(e>>31))
		}
		return slots
	}
	for _, e := range lane {
		slot := int32(e & 0x7fffffff)
		ib.set(slot, uint64(e>>31))
		slots = append(slots, slot)
	}
	return slots
}

// engineStateCore is the type-independent slice of engineState the workers
// need; keeping it non-generic lets the phase methods live on plain structs.
type engineStateCore struct {
	off  []int64 // CSR offsets
	rev  []int32 // CSR reverse half-edge table
	done []bool
	ctxs []NodeCtx
	// in is the inbox plane, of whichever kind the run allocated; outbox is
	// the Message out plane unpacked lanes index (nil on packed runs).
	in     inboxView
	outbox []Message
	// wordShardOf[wd] is the shard whose scatter phase owns word wd of the
	// inbox plane; staging routes every message by its destination slot's
	// word. nil on one-worker runs.
	wordShardOf    []int32
	maxMessageBits int
	packed         bool
	poison         bool // poisoned-Outbox debug check (see debug.go)
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
// shard's live worklist against the current inboxes and stages each outgoing
// message as one uint32 into the lane of the shard owning its destination
// slot's word; in the scatter phase every worker delivers the lanes
// addressed to it into its word window of the engine's flat inbox plane.
// Both plane kinds share the lanes, the word-ownership table and the one
// scatter function. Worklists and staged-slot delivery make a late
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
		rev:            st.rev,
		done:           st.done,
		ctxs:           st.ctxs,
		in:             inboxView{msgs: st.inbox, bits: st.inBits},
		outbox:         st.outbox,
		maxMessageBits: cfg.MaxMessageBits,
		poison:         st.poison,
		timed:          st.tel != nil,
		adv:            st.adv,
		round:          st.roundFor,
		packed:         st.packed,
	}
	for i, w := range pool {
		w.lo, w.hi = bounds[i], bounds[i+1]
		w.active = st.active[w.lo:w.hi:w.hi]
		if i == 0 {
			continue
		}
		w.wire.in, w.wire.inbox = st.inBits, st.inbox
		for v := w.lo; v < w.hi; v++ {
			st.ctxs[v].w = w.wire
		}
	}
	// Word-rounded scatter windows on either plane kind: worker s holds the
	// exclusive word range [wlo, whi) of the inbox plane
	// (graph.ShardWordBounds), so adjacent shards whose slot ranges share a
	// boundary word never write the same word concurrently.
	if workers == 1 {
		pool[0].wlo, pool[0].whi = 0, (len(st.rev)+63)>>6
	} else {
		core.wordShardOf = st.slab.wordShardTable()
		wb := st.g.ShardWordBounds(bounds)
		for s, w := range pool {
			w.wlo, w.whi = wb[s], wb[s+1]
			for wd := w.wlo; wd < w.whi; wd++ {
				core.wordShardOf[wd] = int32(s)
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
			msgs, bits, maxBits, crashed := st.adv.boundary(r, live, core.in,
				func(slot int32) {
					owner := pool[0]
					if core.wordShardOf != nil {
						owner = pool[core.wordShardOf[slot>>6]]
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
// receive in one round, so no lane grows by append, and every worker's
// inboxSlots the most slots a sparse scatter records. A slot is staged at
// most once per round (one sender per reverse half-edge), so one worker's
// single lane needs h; with k workers one pass over the half-edges counts,
// per sender shard, the slots routed to each destination shard by owning
// word, exactly as the compute phase routes them. A sparse scatter stages
// fewer than window/denseCutover messages; only adversary injections can
// append past that.
func sizeLanes(core *engineStateCore, pool []*parallelWorker) {
	if len(pool) == 1 {
		pool[0].lanes[0] = slices.Grow(pool[0].lanes[0], len(core.rev))
	} else {
		counts := make([]int, len(pool))
		for _, w := range pool {
			clear(counts)
			for i := core.off[w.lo]; i < core.off[w.hi]; i++ {
				counts[core.wordShardOf[core.rev[i]>>6]]++
			}
			for s, c := range counts {
				w.lanes[s] = slices.Grow(w.lanes[s], c)
			}
		}
	}
	for _, w := range pool {
		w.inboxSlots = slices.Grow(w.inboxSlots, core.in.window(w.wlo, w.whi)/denseCutover)
	}
}
