package sim

import (
	"fmt"
	mathbits "math/bits"
	"runtime"
	"sync"
	"time"
)

// stagedMsg is one message in flight between the compute and scatter phases
// of RunParallel: the flat half-edge index of the destination slot (the
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
	// active is the shard's compact worklist of live nodes in ascending
	// order, compacted in place as nodes halt; activeN snapshots its length
	// at the top of each compute phase for the Result's ActivePerRound.
	active  []int32
	activeN int
	// arena is the shard's per-round payload arena (see arena.go); it is
	// rotated at the top of each compute phase, which recycles the buffer
	// whose payloads were read in the previous round.
	arena *arena
	// outbox[s] stages the messages this worker's nodes addressed to nodes
	// of shard s during the compute phase; shard s applies them during the
	// scatter phase. Reused (truncated, not freed) across rounds.
	outbox [][]stagedMsg
	// Packed-run counterparts (nil on unpacked runs). out is this worker's
	// private full-length out plane — its nodes' NodeCtx.outBits — harvested
	// and cleared inside the compute phase, so workers never write a shared
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
	// merged totals equal the sequential scheduler's exactly.
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
	// holds the same error Run would have returned.
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
			s := st.shardOf[st.adj[i]]
			w.outbox[s] = append(w.outbox[s], stagedMsg{idx: st.rev[i], msg: msg})
			// Tally at stage time, while the header is hot: the counters
			// merge order-independently across workers, so totals match the
			// sequential engine whether tallied by sender or by receiver.
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
// time, so the phase is pure data movement, and — like the sequential
// engine's finishRound — which strategy runs is an adaptive locality
// decision made per shard per round: a dense round (messages a sizable
// fraction of the window) skips slot bookkeeping and relies on a whole-
// window memclr, which the runtime vectorizes, while a sparse round walks
// exactly the touched slots, so a shattering tail costs O(messages touching
// the shard), not O(half-edges of the shard).
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
	// Same shared density cut-off as the sequential engine's plane swap.
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
// and tallies the canonical 8-bit message; then clears the window. Mirrors
// engineState.stepPacked slot for slot, so the staged order — and with it
// every counter and adversary fate — matches the sequential engine.
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
			s := st.wordShardOf[i>>6]
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

// RunParallel executes the network with a sharded worker-pool engine: nodes
// are partitioned into `workers` contiguous shards of near-equal half-edge
// count (graph.ShardBounds — equal node counts would let one hub-heavy shard
// of a power-law graph dominate every barrier), and a fixed pool of
// `workers` goroutines (default runtime.GOMAXPROCS(0) when workers <= 0,
// clamped to the node count) drives each round in two barrier-separated
// phases. In the compute phase every worker runs its shard's live worklist
// against the current inboxes and stages outgoing messages into a
// per-destination-shard outbox; in the scatter phase every worker delivers
// the messages addressed to its shard into its window of the engine's flat
// inbox array. Because shards are contiguous node ranges, each worker's
// slice of the flat message plane is a contiguous half-edge window;
// worklists and staged-slot delivery make a late round cost
// O(active + messages) rather than O(n + m), and no per-node goroutines or
// per-edge channels are allocated, so the engine scales to million-node
// graphs.
//
// The cut and the pool width are fixed for the whole run: worker i owns
// range i of the initial cut from the first round to the last, whatever the
// host's processor count. Per round and per shard, the scatter phase chooses
// between a staged-slot walk and a whole-window memclr by comparing message
// count against window size (the same density cut-off as the sequential
// engine's plane swap), so dense all-active rounds take the vectorized sweep
// and sparse tail rounds touch only live slots. That choice depends only on
// the Config and the worker count, so the telemetry's per-lane staged counts
// and delivery modes are as reproducible as the Result.
//
// Every mutable location has a single writer (the shard owner), phases are
// separated by barriers, and counters merge over order-independent sums and
// maxima, so for a given Config and seed the Result — outputs, rounds,
// active trajectory, message count, bit total, and max message size — is
// identical to Run's. The test suite asserts this equivalence on random GNP,
// tree and power-law networks under every randomness regime.
func RunParallel[T any](cfg Config, factory func(v int) NodeProgram[T], workers int) (*Result[T], error) {
	st, err := newEngineState(cfg, factory, Parallel)
	if err != nil {
		return nil, err
	}
	defer st.release()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > st.n {
		workers = st.n
	}
	maxRounds := st.maxRounds()
	if workers <= 1 {
		// A one-worker pool is the sequential schedule; skip the barriers,
		// but keep the telemetry labeled with the engine the caller asked
		// for (one lane).
		st.initTelemetry(Parallel, 1)
		return st.runSequential(maxRounds)
	}
	st.initTelemetry(Parallel, workers)

	// Contiguous shards balanced by half-edge count: worker i owns
	// [bounds[i], bounds[i+1]). A pooled run draws the workers, ownership
	// tables and scratch from the slab — the structure (arenas, worklist and
	// staging capacity, private out planes) survives between runs;
	// everything content-like is rewired below.
	bounds := st.g.ShardBounds(workers)
	var shardOf []int32
	var pool []*parallelWorker
	if st.slab != nil {
		shardOf = st.slab.shardTable()
		pool = st.slab.parWorkers(workers, st.packed)
	} else {
		shardOf = make([]int32, st.n)
		pool = make([]*parallelWorker, workers)
		for i := range pool {
			pool[i] = &parallelWorker{arena: &arena{}}
			if st.packed {
				// Each worker gets a private out plane (its nodes write bits
				// there during compute, no shared words) and per-shard packed
				// staging lists; the []Message staging machinery stays nil.
				pool[i].out = newBitPlane(len(st.adjf))
				pool[i].pout = make([][]uint32, workers)
			} else {
				pool[i].outbox = make([][]stagedMsg, workers)
			}
		}
	}
	for i, w := range pool {
		lo, hi := bounds[i], bounds[i+1]
		w.lo, w.hi = lo, hi
		w.wlo, w.whi = 0, 0
		w.active = w.active[:0]
		for v := lo; v < hi; v++ {
			shardOf[v] = int32(i)
			w.active = append(w.active, int32(v))
			st.ctxs[v].arena = w.arena
			if st.packed {
				st.ctxs[v].outBits = w.out
			}
		}
	}
	core := &engineStateCore{
		off:            st.off,
		adj:            st.adjf,
		rev:            st.rev,
		done:           st.done,
		inbox:          st.inbox,
		shardOf:        shardOf,
		maxMessageBits: cfg.MaxMessageBits,
		poison:         st.poison,
		timed:          st.tel != nil,
		adv:            st.adv,
		round:          st.roundFor,
		packed:         st.packed,
		inBits:         st.inBits,
	}
	// Worker s owns range s of the cut, so pool order is node-range order,
	// and everything that must replay the sequential engine's node order —
	// counter merges, held-message queues, the live gather feeding the
	// adversary — walks the pool in order.
	//
	// Word-rounded scatter windows: worker s holds the exclusive word range
	// [wlo, whi) of the packed inbox plane (graph.ShardWordBounds), so
	// adjacent shards whose slot ranges share a boundary word never write
	// the same word concurrently.
	if st.packed {
		if st.slab != nil {
			core.wordShardOf = st.slab.wordShardTable(st.inBits.words())
		} else {
			core.wordShardOf = make([]int32, st.inBits.words())
		}
		wb := st.g.ShardWordBounds(bounds)
		for s, w := range pool {
			w.wlo, w.whi = wb[s], wb[s+1]
			for wd := w.wlo; wd < w.whi; wd++ {
				core.wordShardOf[wd] = int32(s)
			}
		}
	}

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
				switch c.phase {
				case phaseCompute:
					if core.timed {
						start := time.Now()
						w.compute(core, c.round)
						w.computeNS = time.Since(start).Nanoseconds()
					} else {
						w.compute(core, c.round)
					}
				case phaseScatter:
					if core.packed {
						w.scatterPacked(core, i, pool)
					} else {
						w.scatter(core, i, pool)
					}
				}
				barrier.Done()
			}
		}(i, w)
	}
	// runPhase broadcasts one phase to the workers and blocks until every
	// one finishes it; the WaitGroup plus the command-channel sends give the
	// scatter phase a happens-before view of every worker's staged outboxes
	// (and of every coordinator mutation since the last barrier).
	runPhase := func(c phaseCmd) {
		barrier.Add(workers)
		for _, ch := range cmds {
			ch <- c
		}
		barrier.Wait()
	}
	stop := func() {
		for i := range cmds {
			close(cmds[i])
		}
		lifetime.Wait()
	}

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
			stop()
			return nil, &StuckError{MaxRounds: maxRounds, Running: st.running}
		}
		var roundStart time.Time
		if core.timed {
			roundStart = time.Now()
		}
		runPhase(phaseCmd{phase: phaseCompute, round: r})
		// The pool ascends by node range, so the first erroring worker holds
		// the error of the lowest-indexed erroring node — the same error the
		// sequential scheduler reports. Like Run, surface it before any of
		// the round's deliveries are tallied.
		for _, w := range pool {
			if w.err != nil {
				stop()
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
			// Round boundary: all workers are parked on their command
			// channels, so the adversary's inbox writes, crash-stops and
			// stall picks are single-threaded; the next phase commands
			// publish them to the pool.
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
					var owner *parallelWorker
					if st.packed {
						owner = pool[core.wordShardOf[slot>>6]]
					} else {
						owner = pool[shardOf[st.adjf[st.rev[slot]]]]
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
	stop()
	return st.result(), nil
}
