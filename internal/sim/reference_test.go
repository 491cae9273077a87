package sim

import (
	"errors"
	"fmt"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/randomness"
)

// runReference is the test-only oracle the engines are checked against. It
// shares nothing with them past Init: newEngineState (with Unpacked forced
// on) only builds the programs and wires their contexts — IDs, neighbor IDs,
// randomness streams. After that every round scans all n nodes in index
// order, hands each a fresh inbox, and copies every payload as it is sent.
// There is no worklist, arena rotation, pool, staged-slot list or
// dense/sparse choice, so a delivery bug shared by Run and RunParallel has
// nowhere to hide here. It covers fault-free runs only.
func runReference[T any](cfg Config, factory func(v int) NodeProgram[T]) (*Result[T], error) {
	if cfg.Adversary != nil {
		return nil, errors.New("sim: the reference engine runs fault-free configs only")
	}
	cfg.Unpacked = true
	st, err := newEngineState(cfg, factory, Sequential)
	if err != nil {
		return nil, err
	}
	defer st.release()
	n, maxRounds := st.n, st.maxRounds()
	freshInboxes := func() [][]Message {
		in := make([][]Message, n)
		for v := range in {
			in[v] = make([]Message, st.off[v+1]-st.off[v])
		}
		return in
	}
	inbox := freshInboxes()
	halted := make([]bool, n)
	res := &Result[T]{Outputs: make([]T, n)}
	for live := n; live > 0; res.Rounds++ {
		r := res.Rounds
		if r >= maxRounds {
			return nil, &StuckError{MaxRounds: maxRounds, Running: live}
		}
		res.ActivePerRound = append(res.ActivePerRound, live)
		next := freshInboxes()
		for v := 0; v < n; v++ {
			if halted[v] {
				continue
			}
			st.ctxs[v].inboxWin = inbox[v]
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
				next[w][int64(st.rev[i])-st.off[w]] = append(Message{}, msg...)
				res.Messages++
				res.BitsTotal += int64(b)
				res.MaxMessageBits = max(res.MaxMessageBits, b)
			}
			if done {
				halted[v] = true
				live--
			}
		}
		inbox = next
	}
	for v := range res.Outputs {
		res.Outputs[v] = st.progs[v].Output()
	}
	return res, nil
}

// CheckReference runs one config on the reference engine and demands the
// identical Result from Run and from RunParallel with 1–3 workers, each both
// packed and unpacked (a program that declares no PayloadBits runs unpacked
// either way). src returns a
// fresh randomness source per run. It is exported for the external test
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
		assertResultsEqual(t, label, want, got)
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
