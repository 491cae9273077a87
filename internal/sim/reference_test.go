package sim

import (
	"fmt"
	"sort"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

// runReference is the test-only oracle the engine is checked against. It
// shares nothing with the engine past Init: newEngineState (with Unpacked
// forced on and the adversary detached) only builds the programs and wires
// their contexts — IDs, neighbor IDs, randomness streams. After that every
// round scans all n nodes in index order, hands each a fresh inbox, and
// copies every payload as it is sent. There is no worklist, arena rotation,
// pool, staged-slot list or dense/sparse choice, so a delivery bug in the
// engine has nowhere to hide here.
//
// A config with an adversary runs under refAdversary, the reference's own
// rendition of the fault model documented in adversary.go: message fates
// from the pure (seed, round, slot) hash, its own held queue, dead-edge set
// and copy of the coordinator stream. The result then carries a Telemetry
// holding only the injected-event record.
func runReference[T any](cfg Config, factory func(v int) NodeProgram[T]) (*Result[T], error) {
	adv := cfg.Adversary
	cfg.Adversary = nil
	cfg.Unpacked = true
	st, err := newEngineState(cfg, factory)
	if err != nil {
		return nil, err
	}
	defer st.release()
	n, maxRounds := st.n, st.maxRounds()
	// Each round's inboxes are windows of one fresh flat plane, which the
	// unpacked bit accessors read through the contexts' wire.
	freshInboxes := func() ([]Message, [][]Message) {
		flat := make([]Message, len(st.adjf))
		in := make([][]Message, n)
		for v := range in {
			lo, hi := st.off[v], st.off[v+1]
			in[v] = flat[lo:hi:hi]
		}
		return flat, in
	}
	flat, inbox := freshInboxes()
	halted := make([]bool, n)
	res := &Result[T]{Outputs: make([]T, n)}
	var ra *refAdversary
	if adv != nil {
		ra = newRefAdversary(adv, st.off, st.adjf, st.rev)
		res.Telemetry = &Telemetry{}
	}
	tally := func(b int) {
		res.Messages++
		res.BitsTotal += int64(b)
		res.MaxMessageBits = max(res.MaxMessageBits, b)
	}
	for live := n; live > 0; res.Rounds++ {
		r := res.Rounds
		if r >= maxRounds {
			return nil, &StuckError{MaxRounds: maxRounds, Running: live}
		}
		active := live
		if ra != nil {
			active -= ra.stalledN
		}
		res.ActivePerRound = append(res.ActivePerRound, active)
		st.slab.wire.inbox = flat
		nextFlat, next := freshInboxes()
		var sent refSends
		for v := 0; v < n; v++ {
			if halted[v] || ra != nil && ra.stalled[v] {
				continue
			}
			out, done := st.progs[v].Round(r, inbox[v])
			if len(out) > len(inbox[v]) {
				return nil, fmt.Errorf("sim: node %d produced %d outbox entries for degree %d", v, len(out), len(inbox[v]))
			}
			for p, msg := range out {
				if msg == nil {
					continue
				}
				b := msg.BitLen()
				if cfg.MaxMessageBits > 0 && b > cfg.MaxMessageBits {
					return nil, &BandwidthError{Node: v, Round: r, Bits: b, Limit: cfg.MaxMessageBits}
				}
				i := st.off[v] + int64(p)
				w := st.adjf[i]
				port := int64(st.rev[i]) - st.off[w]
				msg = append(Message{}, msg...)
				if ra != nil && !ra.send(r, st.rev[i], w, port, msg, &sent) {
					continue
				}
				next[w][port] = msg
				tally(msg.BitLen())
			}
			if done {
				halted[v] = true
				live--
			}
		}
		flat, inbox = nextFlat, next
		if ra != nil {
			live -= ra.boundary(r, sent, inbox, halted, tally, &res.Telemetry.Injected)
		}
	}
	if ra != nil && len(ra.held) > 0 {
		res.Telemetry.Injected = append(res.Telemetry.Injected,
			InjectedEvent{Round: res.Rounds - 1, Kind: InjectExpire, Count: len(ra.held)})
	}
	for v := range res.Outputs {
		res.Outputs[v] = st.progs[v].Output()
	}
	return res, nil
}

// refAdversary is the reference's fault model. It reads only the immutable
// Adversary (budgets and seed) and derives everything else itself.
type refAdversary struct {
	cfg  AdversaryConfig
	seed uint64
	rng  *prng.SplitMix64
	off  []int64
	adjf []int32
	rev  []int32
	// dead marks churned-away half-edges (always both halves of an edge);
	// deadList holds each dead edge once, by its lower half-edge index.
	dead     []bool
	deadList []int32
	held     []refHeld
	stalled  []bool
	stalledN int
}

// refHeld is one delayed message, addressed by receiver and port.
type refHeld struct {
	slot        int32
	to          int32
	port        int64
	staged, due int
	msg         Message
}

// refSends counts one round's send-side losses.
type refSends struct{ drops, cuts, delays int }

func newRefAdversary(a *Adversary, off []int64, adjf, rev []int32) *refAdversary {
	return &refAdversary{
		cfg:     a.cfg,
		seed:    a.seed,
		rng:     prng.New(prng.Hash64(a.seed ^ 0xC2B2AE3D27D4EB4F)),
		off:     off,
		adjf:    adjf,
		rev:     rev,
		dead:    make([]bool, len(rev)),
		stalled: make([]bool, len(off)-1),
	}
}

// send decides the fate of a round-r message bound for slot (port `port` of
// node to) and reports whether it is delivered now. A cut edge loses it;
// otherwise the (seed, round, slot) hash drops it, delays it by 1..DelayMax
// rounds, or delivers it.
func (a *refAdversary) send(r int, slot, to int32, port int64, msg Message, sent *refSends) bool {
	if a.dead[slot] {
		sent.cuts++
		return false
	}
	dp, yp := a.cfg.DropProb, a.cfg.DelayProb
	if dp == 0 && yp == 0 {
		return true
	}
	h := prng.Hash64(a.seed ^ (uint64(r)<<32 | uint64(uint32(slot))))
	u := float64(h>>11) / (1 << 53)
	switch {
	case u < dp:
		sent.drops++
		return false
	case u < dp+yp:
		d := 1
		if a.cfg.DelayMax > 1 {
			d += int(prng.Hash64(h^0x9E3779B97F4A7C15) % uint64(a.cfg.DelayMax))
		}
		sent.delays++
		a.held = append(a.held, refHeld{slot: slot, to: to, port: port, staged: r, due: r + 1 + d, msg: msg})
		return false
	}
	return true
}

// boundary runs the between-rounds step after round r, in the order
// documented on advState.boundary: record the send-side losses, inject the
// late messages due next round (newest first; a message finding its slot
// taken, or its receiver halted, is superseded), churn and heal edges, then
// crash-stop nodes and pick the next round's stalls from the live nodes in
// index order. It returns the number of nodes crashed.
func (a *refAdversary) boundary(r int, sent refSends, inbox [][]Message, halted []bool, tally func(int), events *[]InjectedEvent) int {
	record := func(kind InjectKind, count int) {
		if count > 0 {
			*events = append(*events, InjectedEvent{Round: r, Kind: kind, Count: count})
		}
	}
	record(InjectDrop, sent.drops)
	record(InjectCut, sent.cuts)
	record(InjectDelay, sent.delays)

	var due, later []refHeld
	for _, hm := range a.held {
		if hm.due == r+1 {
			due = append(due, hm)
		} else {
			later = append(later, hm)
		}
	}
	a.held = later
	sort.Slice(due, func(i, j int) bool {
		if due[i].staged != due[j].staged {
			return due[i].staged > due[j].staged
		}
		return due[i].slot < due[j].slot
	})
	superseded := 0
	for _, hm := range due {
		if halted[hm.to] || inbox[hm.to][hm.port] != nil {
			superseded++
			continue
		}
		inbox[hm.to][hm.port] = hm.msg
		tally(hm.msg.BitLen())
	}
	record(InjectSupersede, superseded)

	if h := len(a.dead); a.cfg.ChurnPerRound > 0 && h > 0 {
		down := 0
		for j := 0; j < a.cfg.ChurnPerRound; j++ {
			for t := 0; t < 32; t++ {
				i := int32(a.rng.Intn(h))
				if a.dead[i] {
					continue
				}
				a.dead[i], a.dead[a.rev[i]] = true, true
				a.deadList = append(a.deadList, min(i, a.rev[i]))
				down++
				break
			}
		}
		record(InjectChurnDown, down)
	}
	if a.cfg.HealPerRound > 0 && len(a.deadList) > 0 {
		up := 0
		for j := 0; j < a.cfg.HealPerRound && len(a.deadList) > 0; j++ {
			k := a.rng.Intn(len(a.deadList))
			i := a.deadList[k]
			a.deadList[k] = a.deadList[len(a.deadList)-1]
			a.deadList = a.deadList[:len(a.deadList)-1]
			a.dead[i], a.dead[a.rev[i]] = false, false
			up++
		}
		record(InjectChurnUp, up)
	}

	crashed := 0
	if a.cfg.CrashPerRound > 0 || a.cfg.StallPerRound > 0 {
		clear(a.stalled)
		a.stalledN = 0
		var cands []int32
		for v, h := range halted {
			if !h {
				cands = append(cands, int32(v))
			}
		}
		// draw removes a uniform candidate, swapping the last one into its
		// place.
		draw := func() int32 {
			i := a.rng.Intn(len(cands))
			v := cands[i]
			cands[i] = cands[len(cands)-1]
			cands = cands[:len(cands)-1]
			return v
		}
		for crashed < a.cfg.CrashPerRound && len(cands) > 0 {
			halted[draw()] = true
			crashed++
		}
		record(InjectCrash, crashed)
		// At least one live node is always left unstalled.
		for a.stalledN < a.cfg.StallPerRound && len(cands) > 1 {
			a.stalled[draw()] = true
			a.stalledN++
		}
		record(InjectStall, a.stalledN)
		lost := 0
		for v, s := range a.stalled {
			if s {
				for _, m := range inbox[v] {
					if m != nil {
						lost++
					}
				}
			}
		}
		record(InjectStallLoss, lost)
	}
	return crashed
}

// assertMatchesReference demands got reproduce the reference's Result and,
// for a faulted config, its injected-event record.
func assertMatchesReference[T comparable](t *testing.T, label string, want, got *Result[T]) {
	t.Helper()
	assertResultsEqual(t, label, want, got)
	if want.Telemetry != nil {
		assertInjectedEqual(t, label, want.Telemetry, got.Telemetry)
	}
}

// CheckReference runs one config on the reference engine and demands the
// identical Result (and, under an adversary, the identical injected-event
// record) from Run and from RunParallel with 1–3 workers, each both packed
// and unpacked (a program that declares no PayloadBits runs unpacked either
// way). src returns a fresh randomness source per run. It is exported for the external test
// package, whose tests can import the algorithm packages built on sim.
func CheckReference[T comparable](t *testing.T, cfg Config, src func() randomness.Source, factory func(v int) NodeProgram[T]) {
	t.Helper()
	cfg.Source = src()
	want, err := runReference(cfg, factory)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	check := func(label string, got *Result[T], err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertMatchesReference(t, label, want, got)
	}
	for _, unpacked := range []bool{false, true} {
		c := cfg
		c.Unpacked = unpacked
		c.Source = src()
		got, err := Run(c, factory)
		check(fmt.Sprintf("sequential/unpacked=%v", unpacked), got, err)
		for workers := 1; workers <= 3; workers++ {
			c.Source = src()
			got, err := RunParallel(c, factory, workers)
			check(fmt.Sprintf("parallel/workers=%d/unpacked=%v", workers, unpacked), got, err)
		}
	}
}

// TestReferenceEquivalence holds Run and RunParallel to the reference engine
// on the graph families and randomness regimes of TestSchedulerEquivalence,
// for a full-width varint program (randFlood) and a 1-bit one that runs over
// packed planes unless unpacked (bitGossip). The repository's MIS programs
// get the same treatment in TestReferenceEquivalenceLuby.
func TestReferenceEquivalence(t *testing.T) {
	for _, tg := range equivalenceGraphs() {
		n := tg.g.N()
		rounds := graph.Diameter(tg.g) + 1
		cfg := Config{Graph: tg.g, IDs: RandomIDs(n, n, NewSimulationKey(uint64(n))), MaxMessageBits: CongestBits(n)}
		for _, reg := range equivalenceRegimes {
			src := func() randomness.Source { return reg.mk(n) }
			t.Run(tg.name+"/"+reg.name+"/randflood", func(t *testing.T) {
				CheckReference(t, cfg, src, func(int) NodeProgram[uint64] { return &randFlood{rounds: rounds} })
			})
			t.Run(tg.name+"/"+reg.name+"/bitgossip", func(t *testing.T) {
				CheckReference(t, cfg, src, func(int) NodeProgram[uint64] { return &bitGossip{rounds: rounds} })
			})
		}
	}
}
