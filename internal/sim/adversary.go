package sim

import (
	"fmt"
	"sort"

	"randlocal/internal/prng"
)

// AdversaryConfig sets the per-round fault budgets of an Adversary. The zero
// value is the null adversary: enabled but injecting nothing (useful as the
// control arm — by stream isolation it reproduces the fault-free run bit for
// bit, which adversary_test.go asserts at several worker counts).
type AdversaryConfig struct {
	// DropProb is the probability that any one sent message is silently
	// lost in transit (the receiver sees nothing; the sender is not told).
	DropProb float64
	// DelayProb is the probability that a sent message is held back and
	// injected 1..DelayMax rounds late. A late message loses to anything
	// newer: if the slot it targets holds a fresher message when it comes
	// due, it is superseded and lost.
	DelayProb float64
	// DelayMax bounds the extra rounds a delayed message is held; 0 is
	// treated as 1 when DelayProb > 0, and negative values are rejected.
	DelayMax int
	// CrashPerRound crash-stops that many uniformly chosen live nodes at
	// each round boundary. A crashed node stops computing and sending
	// forever (crash-stop, not crash-recovery) but its neighbors are not
	// notified — exactly a halt the program did not choose.
	CrashPerRound int
	// ChurnPerRound removes that many uniformly chosen live edges at each
	// round boundary; messages on a removed edge are lost in both
	// directions from the next round on.
	ChurnPerRound int
	// HealPerRound restores that many previously removed edges at each
	// round boundary (no-op while no edge is down).
	HealPerRound int
	// StallPerRound suspends that many uniformly chosen live nodes for the
	// next round — an adversarial scheduler that denies them the round
	// entirely: no compute, no sends, and the messages that arrived for the
	// stalled round are never observed. At least one live node is always
	// left unstalled, so progress (if the protocol makes any) survives.
	StallPerRound int
}

func (c AdversaryConfig) validate() error {
	if c.DropProb < 0 || c.DropProb > 1 {
		return fmt.Errorf("sim: adversary DropProb %v outside [0,1]", c.DropProb)
	}
	if c.DelayProb < 0 || c.DelayProb > 1 {
		return fmt.Errorf("sim: adversary DelayProb %v outside [0,1]", c.DelayProb)
	}
	if c.DropProb+c.DelayProb > 1 {
		return fmt.Errorf("sim: adversary DropProb+DelayProb %v exceeds 1", c.DropProb+c.DelayProb)
	}
	if c.DelayMax < 0 || c.CrashPerRound < 0 || c.ChurnPerRound < 0 || c.HealPerRound < 0 || c.StallPerRound < 0 {
		return fmt.Errorf("sim: negative adversary budget")
	}
	return nil
}

// Zero reports whether every budget is zero (the null adversary).
func (c AdversaryConfig) Zero() bool {
	return c.DropProb == 0 && c.DelayProb == 0 && c.CrashPerRound == 0 &&
		c.ChurnPerRound == 0 && c.HealPerRound == 0 && c.StallPerRound == 0
}

// Adversary is an immutable fault-injection plan: a budget configuration
// plus the adversary subseed of a SimulationKey. Attach one via
// Config.Adversary; the same Adversary may be reused across runs (each run
// instantiates its own mutable state) and, because every decision draws only
// from the adversary stream, attaching it never changes which coins the
// algorithm sees.
//
// Determinism contract: for a fixed Config (graph, IDs, source seed,
// adversary), the faulted Result — outputs, rounds, ActivePerRound, message
// and bit counters — and the injected-event record are identical for every
// worker count. Message-level decisions are pure
// hashes of (adversary seed, round, destination slot), which no engine
// reorders; node- and edge-level decisions (crashes, churn, stalls) are made
// single-threaded at round boundaries from one coordinator stream.
type Adversary struct {
	cfg  AdversaryConfig
	seed uint64
}

// NewAdversary builds an adversary from the key's adversary subsystem
// stream and the given budgets.
func NewAdversary(key SimulationKey, cfg AdversaryConfig) (*Adversary, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.DelayProb > 0 && cfg.DelayMax < 1 {
		cfg.DelayMax = 1
	}
	return &Adversary{cfg: cfg, seed: key.Subseed(StreamAdversary)}, nil
}

// Config returns the (normalized) budgets.
func (a *Adversary) Config() AdversaryConfig { return a.cfg }

// InjectKind names one category of injected fault event.
type InjectKind uint8

const (
	// InjectDrop counts messages lost in transit by the drop budget.
	InjectDrop InjectKind = iota
	// InjectCut counts messages lost because their edge was churned away.
	InjectCut
	// InjectDelay counts messages held back for late delivery.
	InjectDelay
	// InjectSupersede counts delayed messages that came due but were never
	// observed: their slot held a fresher message, or their receiver had
	// halted in the meantime.
	InjectSupersede
	// InjectExpire counts delayed messages still in flight when the run
	// ended.
	InjectExpire
	// InjectChurnDown counts edges removed.
	InjectChurnDown
	// InjectChurnUp counts edges restored.
	InjectChurnUp
	// InjectCrash counts nodes crash-stopped.
	InjectCrash
	// InjectStall counts node-rounds suspended by the adversarial
	// scheduler.
	InjectStall
	// InjectStallLoss counts messages that had been delivered for a round
	// their receiver was stalled through — they are never observed (their
	// delivery was already tallied, so Result.Messages is not adjusted).
	InjectStallLoss
)

// String returns a short human-readable name.
func (k InjectKind) String() string {
	switch k {
	case InjectDrop:
		return "drop"
	case InjectCut:
		return "cut"
	case InjectDelay:
		return "delay"
	case InjectSupersede:
		return "supersede"
	case InjectExpire:
		return "expire"
	case InjectChurnDown:
		return "churn-down"
	case InjectChurnUp:
		return "churn-up"
	case InjectCrash:
		return "crash"
	case InjectStall:
		return "stall"
	case InjectStallLoss:
		return "stall-loss"
	default:
		return "unknown"
	}
}

// InjectedEvent is one aggregated fault record in Result.Telemetry: Count
// injections of one Kind at the boundary after round Round. Events are
// non-decreasing in Round overall and strictly increasing in Round per Kind,
// and — unlike the telemetry's wall-clock fields — identical across
// schedulers.
type InjectedEvent struct {
	Round int
	Kind  InjectKind
	Count int
}

// messageFate is the in-transit outcome of one sent message.
type messageFate uint8

const (
	fateDeliver messageFate = iota
	fateDrop
	fateCut
	fateDelay
)

// heldMsg is one delayed message: the destination slot, the round it was
// staged, the first round whose compute may observe it, and a private copy
// of the payload (the original lives in a per-round arena whose buffer is
// recycled long before a late delivery).
type heldMsg struct {
	slot    int32
	staged  int32
	deliver int32
	msg     Message
}

// advState is the mutable per-run state of an Adversary. Engines create one
// per run; the shared Adversary stays immutable. Methods fall in two groups:
// fate/hold run inside compute phases (fate is a pure hash; hold touches
// only caller-owned accumulators), everything else runs single-threaded at
// round boundaries while all workers are parked.
type advState struct {
	cfg  AdversaryConfig
	seed uint64
	rng  *prng.SplitMix64 // coordinator stream: crashes, churn, stalls
	off  []int64
	adjf []int32
	rev  []int32
	done []bool // the engine's halted flags (shared, read at boundaries)

	// edgeDead[i] marks half-edge i (and always also rev[i]) as churned
	// away; deadEdges lists each dead edge once by its lower half-edge
	// index, for uniform heal draws.
	edgeDead  []bool
	deadEdges []int32

	held []heldMsg

	// stalled[v] suspends node v for the upcoming round; refreshed at every
	// boundary. A stalled node's Round method is not invoked, so it does not
	// count as active.
	stalled     []bool
	stalledList []int32

	// Per-round send-side counters, accumulated per worker and merged via
	// mergeRound before the boundary.
	roundDrops  int
	roundCuts   int
	roundDelays int

	liveScratch []int32
	tel         *Telemetry
}

// newState instantiates the per-run state: the engine's CSR tables for
// edge-level bookkeeping and its (live, shared) halted flags.
func (a *Adversary) newState(off []int64, adjf, rev []int32, done []bool) *advState {
	n := len(off) - 1
	return &advState{
		cfg:      a.cfg,
		seed:     a.seed,
		rng:      prng.New(prng.Hash64(a.seed ^ 0xC2B2AE3D27D4EB4F)),
		off:      off,
		adjf:     adjf,
		rev:      rev,
		done:     done,
		edgeDead: make([]bool, len(rev)),
		stalled:  make([]bool, n),
	}
}

// fate decides the in-transit outcome of the round-r message addressed to
// destination slot (a flat half-edge index). It is a pure function of
// (seed, round, slot) — the slot is engine-invariant, so every width
// computes the same outcome regardless of staging order — and is safe to
// call concurrently. The returned delay is the number of extra rounds a
// fateDelay message is held (>= 1).
func (s *advState) fate(r int, slot int32) (messageFate, int) {
	if s.edgeDead[slot] {
		return fateCut, 0
	}
	dp, yp := s.cfg.DropProb, s.cfg.DelayProb
	if dp == 0 && yp == 0 {
		return fateDeliver, 0
	}
	h := prng.Hash64(s.seed ^ (uint64(r)<<32 | uint64(uint32(slot))))
	u := float64(h>>11) / (1 << 53)
	switch {
	case u < dp:
		return fateDrop, 0
	case u < dp+yp:
		d := 1
		if s.cfg.DelayMax > 1 {
			d = 1 + int(prng.Hash64(h^0x9E3779B97F4A7C15)%uint64(s.cfg.DelayMax))
		}
		return fateDelay, d
	default:
		return fateDeliver, 0
	}
}

// holdMsg builds the held entry for a fateDelay outcome, copying the payload
// out of its arena.
func holdMsg(slot int32, r, d int, msg Message) heldMsg {
	return heldMsg{
		slot:    slot,
		staged:  int32(r),
		deliver: int32(r + 1 + d),
		msg:     append(Message(nil), msg...),
	}
}

// mergeRound folds one worker's per-round fault accumulators into the
// coordinator state. The counters are sums and the held list is re-sorted
// deterministically at injection time, so the merge order is immaterial.
func (s *advState) mergeRound(drops, cuts, delays int, held []heldMsg) {
	s.roundDrops += drops
	s.roundCuts += cuts
	s.roundDelays += delays
	s.held = append(s.held, held...)
}

func (s *advState) record(r int, kind InjectKind, count int) {
	if count > 0 {
		s.tel.recordInjected(r, kind, count)
	}
}

// boundary is the adversary's single-threaded step between rounds, run by
// the engine's coordinator right after round r's delivery with all workers
// parked. In fixed order it: records the round's send-side losses, injects
// delayed messages that came due, churns edges, crash-stops nodes, and picks
// the next round's stalls. live is the post-round live worklist (ascending);
// crash(v) must mark v halted in the engine's structures (the engine
// compacts its worklists afterwards when crashed > 0). onInject(slot), if
// non-nil, lets the engine account a written inbox slot. iv is the engine's
// current inbox plane behind a representation-neutral view (see inboxView):
// the boundary's decisions depend only on slot occupancy, so a packed run
// makes exactly the supersede/injection choices of its unpacked twin. The
// returned msgs/bits/maxBits are the late-delivery tallies to fold into the
// Result counters.
func (s *advState) boundary(r int, live []int32, iv inboxView, onInject func(int32), crash func(int32)) (msgs int64, bits int64, maxBits int, crashed int) {
	s.record(r, InjectDrop, s.roundDrops)
	s.record(r, InjectCut, s.roundCuts)
	s.record(r, InjectDelay, s.roundDelays)
	s.roundDrops, s.roundCuts, s.roundDelays = 0, 0, 0

	// Late deliveries: among due messages, newest wins — both against the
	// fresh message already in the slot (supersede) and among due entries
	// for the same slot (sorted newest first, so the older one finds the
	// slot taken). The sort also makes the outcome independent of the
	// order reports merged held entries.
	if len(s.held) > 0 {
		due := s.takeDue(r + 1)
		if len(due) > 0 {
			sort.Slice(due, func(i, j int) bool {
				if due[i].staged != due[j].staged {
					return due[i].staged > due[j].staged
				}
				return due[i].slot < due[j].slot
			})
			superseded := 0
			for _, h := range due {
				// A receiver that halted (or crashed) no longer observes its
				// inbox, so the decision must not depend on what its abandoned
				// window holds: a late message to a halted node is always
				// superseded.
				if s.done[s.adjf[s.rev[h.slot]]] {
					superseded++
					continue
				}
				if iv.occupied(h.slot) {
					superseded++
					continue
				}
				iv.inject(h.slot, h.msg)
				if onInject != nil {
					onInject(h.slot)
				}
				b := h.msg.BitLen()
				msgs++
				bits += int64(b)
				if b > maxBits {
					maxBits = b
				}
			}
			s.record(r, InjectSupersede, superseded)
		}
	}

	// Edge churn. Kills draw uniformly over half-edges, skipping dead ones
	// (bounded retries, so a nearly disconnected graph cannot livelock the
	// boundary); heals draw uniformly over the dead-edge list.
	if s.cfg.ChurnPerRound > 0 && len(s.edgeDead) > 0 {
		down := 0
		for j := 0; j < s.cfg.ChurnPerRound; j++ {
			for t := 0; t < 32; t++ {
				i := int32(s.rng.Intn(len(s.edgeDead)))
				if s.edgeDead[i] {
					continue
				}
				ri := s.rev[i]
				s.edgeDead[i], s.edgeDead[ri] = true, true
				if ri < i {
					i = ri
				}
				s.deadEdges = append(s.deadEdges, i)
				down++
				break
			}
		}
		s.record(r, InjectChurnDown, down)
	}
	if s.cfg.HealPerRound > 0 && len(s.deadEdges) > 0 {
		up := 0
		for j := 0; j < s.cfg.HealPerRound && len(s.deadEdges) > 0; j++ {
			di := s.rng.Intn(len(s.deadEdges))
			i := s.deadEdges[di]
			s.deadEdges[di] = s.deadEdges[len(s.deadEdges)-1]
			s.deadEdges = s.deadEdges[:len(s.deadEdges)-1]
			s.edgeDead[i], s.edgeDead[s.rev[i]] = false, false
			up++
		}
		s.record(r, InjectChurnUp, up)
	}

	// Crash-stops, then next round's stalls, drawn from the same shrinking
	// pool so a node is never crashed and stalled at once.
	if s.cfg.CrashPerRound > 0 || s.cfg.StallPerRound > 0 {
		for _, v := range s.stalledList {
			s.stalled[v] = false
		}
		s.stalledList = s.stalledList[:0]

		s.liveScratch = append(s.liveScratch[:0], live...)
		pool := s.liveScratch
		k := s.cfg.CrashPerRound
		if k > len(pool) {
			k = len(pool)
		}
		for j := 0; j < k; j++ {
			i := s.rng.Intn(len(pool))
			v := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			crash(v)
		}
		s.record(r, InjectCrash, k)
		crashed = k

		sk := s.cfg.StallPerRound
		if sk > len(pool)-1 {
			sk = len(pool) - 1 // always leave one node unstalled
		}
		for j := 0; j < sk; j++ {
			i := s.rng.Intn(len(pool))
			v := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			s.stalled[v] = true
			s.stalledList = append(s.stalledList, v)
		}
		s.record(r, InjectStall, len(s.stalledList))

		// Messages already delivered for the stalled round are never
		// observed (the round's fresh deliveries replace them before the
		// node runs again); count them.
		lost := 0
		for _, v := range s.stalledList {
			lost += iv.occupiedInRange(s.off[v], s.off[v+1])
		}
		s.record(r, InjectStallLoss, lost)
	}
	return msgs, bits, maxBits, crashed
}

// takeDue partitions s.held in place: entries due at round `due` are
// returned (in a fresh slice), the rest remain compacted in s.held.
func (s *advState) takeDue(due int) []heldMsg {
	kept := s.held[:0]
	var dueList []heldMsg
	for _, h := range s.held {
		if int(h.deliver) == due {
			dueList = append(dueList, h)
		} else {
			kept = append(kept, h)
		}
	}
	// Clear the tail so superseded payloads are not retained.
	for i := len(kept); i < len(s.held); i++ {
		s.held[i] = heldMsg{}
	}
	s.held = kept
	return dueList
}

// finish flushes end-of-run records: delayed messages still in flight when
// the network halted expire undelivered. finalRound is the last executed
// round index.
func (s *advState) finish(finalRound int) {
	if len(s.held) > 0 {
		s.record(finalRound, InjectExpire, len(s.held))
		s.held = s.held[:0]
	}
}
