package sim

import (
	"slices"
	"sync"
)

// EnginePool keeps the engine's warm buffer sets — message planes, bit
// planes, worklists, contexts, arenas, and the per-worker staging state —
// alive between runs, keyed by graph shape. It generalizes the slab-factory
// idiom of the per-round arenas from one run's rounds to a whole workload's
// runs: the first simulation of a given (n, half-edges) shape pays the
// O(n + m) allocations, every later one of the same shape reuses the slab
// and allocates O(1).
//
// The pool never changes Results: a slab is handed back scrubbed (planes
// cleared, worklists truncated, arenas rotated empty), and the warm-vs-cold
// equivalence suites assert byte-identical Results across worker counts and
// both plane representations.
//
// Sharing: a pool is safe for concurrent use by independent runs (the
// experiments trial pool, the locsimd daemon's job workers). Each run holds
// its slab exclusively from acquire to release; concurrent same-shape runs
// simply warm several slabs.
//
// Retention: at most maxIdleSlabs slabs stay parked, whatever their shapes;
// parking one more evicts the least recently parked slab to the GC. A
// long-lived host that sees a new graph shape per request (every distinct
// gnp seed is one) therefore holds a bounded set of buffers, while a
// workload that cycles through fewer shapes than the cap stays fully warm.
//
// A run opts in through Config.Pool; a nil pool allocates fresh buffers for
// that run alone.
type EnginePool struct {
	mu sync.Mutex
	// parked holds the idle slabs, least recently parked first. Acquire
	// never blocks on the cap.
	parked []*engineSlab
}

// maxIdleSlabs caps the slabs a pool keeps parked across all shapes.
const maxIdleSlabs = 64

// slabKey is the shape a slab serves: buffer sizes are functions of the node
// and half-edge counts alone, so two different graphs of equal shape share
// slabs safely — every per-run content (contexts, neighbor IDs, shard cuts)
// is rewritten by the engine setup — and so do runs of any worker count.
type slabKey struct {
	n int
	h int
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool {
	return &EnginePool{}
}

// acquire takes the most recently parked slab of the given shape, or builds
// a fresh one. The caller owns it exclusively until release.
func (p *EnginePool) acquire(n, h int) *engineSlab {
	key := slabKey{n: n, h: h}
	p.mu.Lock()
	for i := len(p.parked) - 1; i >= 0; i-- {
		if s := p.parked[i]; s.key == key {
			p.parked = slices.Delete(p.parked, i, i+1)
			p.mu.Unlock()
			return s
		}
	}
	p.mu.Unlock()
	return newSlab(n, h)
}

// newSlab builds an empty slab for the shape; unpooled runs use one for a
// single run and drop it.
func newSlab(n, h int) *engineSlab {
	return &engineSlab{
		key:    slabKey{n: n, h: h},
		active: make([]int32, n),
		done:   make([]bool, n),
		ctxs:   make([]NodeCtx, n),
	}
}

// park returns a scrubbed slab to the pool (the slab must already be clean;
// engineState.release scrubs before parking), evicting the least recently
// parked slab when the pool is full.
func (p *EnginePool) park(s *engineSlab) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.parked) == maxIdleSlabs {
		p.parked = slices.Delete(p.parked, 0, 1)
	}
	p.parked = append(p.parked, s)
}

// idle reports the number of parked slabs (tests).
func (p *EnginePool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.parked)
}

// engineSlab is one reusable buffer set. The eager fields (worklist,
// halted bitmap, contexts) exist for every run of the shape; everything else
// is materialized on first use — a packed run never allocates Message
// planes, a one-worker run never allocates private out planes or the
// ownership table — and then kept.
//
// Invariant: a parked slab is clean. Planes hold no messages, the halted
// bitmap is all-false, worklists and slot lists have length zero, arenas are
// empty (capacity retained). engineState.release enforces it; the engine's
// setup code may therefore use slab buffers without re-clearing them.
type engineSlab struct {
	key    slabKey
	active []int32
	done   []bool
	ctxs   []NodeCtx

	// Unpacked message planes and the neighbor-ID table (len h).
	inbox, outbox []Message
	nids          []uint64
	// Packed bit planes; outBits doubles as worker 0's out plane.
	inBits, outBits bitPlane
	// activeTrace is the run's active trace (length 0 parked).
	activeTrace []int
	// arena is the engine arena: Init carves land here, and worker 0 keeps
	// using it for its rounds. wire is worker 0's wire, through which every
	// context reaches the arena and planes from Init on.
	arena arena
	wire  wire

	// Persistent workers (usedWorkers marks how many the last run wired)
	// and the word-ownership table of multi-worker runs.
	workers     []*parallelWorker
	usedWorkers int
	wordShardOf []int32
}

// msgPlane materializes one of the slab's Message planes.
func (s *engineSlab) msgPlane(p *[]Message) []Message {
	if *p == nil {
		*p = make([]Message, s.key.h)
	}
	return *p
}

// plane materializes one of the slab's bit planes.
func (s *engineSlab) plane(p *bitPlane) bitPlane {
	if *p == nil {
		*p = newBitPlane(s.key.h)
	}
	return *p
}

// neighborIDs materializes the flat neighbor-ID table. Contents are fully
// rewritten by every KT1 run, so no scrub is needed.
func (s *engineSlab) neighborIDs() []uint64 {
	if s.nids == nil {
		s.nids = make([]uint64, s.key.h)
	}
	return s.nids
}

// wordShardTable materializes the word-ownership table of multi-worker
// runs, one entry per 64-slot word of the inbox plane.
func (s *engineSlab) wordShardTable() []int32 {
	if s.wordShardOf == nil {
		s.wordShardOf = make([]int32, (s.key.h+63)>>6)
	}
	return s.wordShardOf
}

// parWorkers hands out `workers` reset parallelWorker structs, growing the
// persistent set as needed. Worker 0 runs on the slab's wire (the engine
// arena and, packed, the engine's out plane); every other worker keeps its
// own wire, with its own arena and private out plane, warm across runs. The
// caller re-wires shard bounds, worklists, staging capacity, the shared
// inbox planes and context ownership per run.
func (s *engineSlab) parWorkers(workers int, packed bool) []*parallelWorker {
	for len(s.workers) < workers {
		w := &parallelWorker{wire: &s.wire}
		if len(s.workers) > 0 {
			w.wire = &wire{arena: &arena{}}
		}
		s.workers = append(s.workers, w)
	}
	s.usedWorkers = workers
	out := s.workers[:workers]
	for i, w := range out {
		if packed && i > 0 && w.wire.out == nil {
			w.wire.out = newBitPlane(s.key.h)
		}
		w.lanes = resizeStaging(w.lanes, workers)
	}
	return out
}

// resizeStaging adjusts a per-destination-shard lane table to the run's
// worker count, truncating every retained lane (inner capacity survives).
func resizeStaging(lists [][]uint32, workers int) [][]uint32 {
	if cap(lists) < workers {
		grown := make([][]uint32, workers)
		copy(grown, lists)
		lists = grown
	}
	lists = lists[:workers]
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	return lists
}

// scrub restores the parked-clean invariant after a run. engineState.release
// calls it exactly once per pooled acquire — including on error returns.
func (s *engineSlab) scrub() {
	clear(s.done)
	clear(s.inbox)
	clear(s.outbox)
	clear(s.inBits)
	clear(s.outBits)
	s.activeTrace = s.activeTrace[:0]
	s.arena.reset()
	for wi, w := range s.workers[:s.usedWorkers] {
		w.active = nil
		w.inboxSlots = w.inboxSlots[:0]
		w.held = nil
		w.denseInbox = false
		w.err = nil
		for i := range w.lanes {
			w.lanes[i] = w.lanes[i][:0]
		}
		if wi > 0 {
			clear(w.wire.out) // worker 0's is s.outBits
		}
		w.wire.arena.reset()
	}
	s.usedWorkers = 0
}

// reset empties both of the arena's round buffers, retaining their capacity
// — the between-runs counterpart of rotate.
func (a *arena) reset() {
	a.bufs[0] = a.bufs[0][:0]
	a.bufs[1] = a.bufs[1][:0]
}

// release scrubs the run's slab and parks it in its pool. Unpooled runs
// simply drop their slab; idempotent per run.
func (st *engineState[T]) release() {
	if st.pool == nil {
		return
	}
	s, p := st.slab, st.pool
	st.slab, st.pool = nil, nil
	// Write back the header the run may have grown.
	s.activeTrace = st.activeTrace
	s.scrub()
	p.park(s)
}
