package randlocal

// Golden message-accounting tests for the Outbox + arena migration of the
// node programs. The expected values were captured from the heap-allocating
// (pre-migration) implementations at commit 128a373 with these exact graphs
// and seeds; asserting them here proves the zero-alloc rewrite changed how
// payloads are stored, not what is sent — message counts, total bits, max
// message size and round counts are byte-identical — and asserting them
// under every scheduler folds in the engine-equivalence guarantee. Each
// wrapper gets the scheduler through its ExecOptions, with telemetry on so
// the test can see which engine ran. The runs execute with the
// poisoned-Outbox check enabled, so they also verify every migrated program
// honors the Outbox contract.

import (
	"fmt"
	"testing"
)

type goldenAccounting struct {
	rounds  int
	msgs    int64
	bits    int64
	maxBits int
}

// assertEngine checks that a run executed on the engine its ExecOptions named.
func assertEngine(t *testing.T, label string, exec ExecOptions, tel *Telemetry) {
	t.Helper()
	want := 1
	if exec.Scheduler == SchedulerParallel {
		want = exec.Workers
	}
	if tel == nil || tel.Scheduler != exec.Scheduler || tel.Workers != want {
		t.Errorf("%s: ran on %+v, want scheduler %v with %d workers", label, tel, exec.Scheduler, want)
	}
}

func assertGolden(t *testing.T, label string, want goldenAccounting, rounds int, msgs, bits int64, maxBits int) {
	t.Helper()
	if rounds != want.rounds || msgs != want.msgs || bits != want.bits || maxBits != want.maxBits {
		t.Errorf("%s: (rounds=%d msgs=%d bits=%d maxbits=%d), want (rounds=%d msgs=%d bits=%d maxbits=%d)",
			label, rounds, msgs, bits, maxBits, want.rounds, want.msgs, want.bits, want.maxBits)
	}
}

func TestGoldenAccountingAcrossSchedulers(t *testing.T) {
	g := GNPConnected(200, 4.0/200, NewRNG(1))
	SetDebugOutboxCheck(true)
	defer SetDebugOutboxCheck(false)
	for _, sched := range []Scheduler{SchedulerSequential, SchedulerParallel} {
		exec := ExecOptions{Scheduler: sched, Workers: 3, Telemetry: true}
		t.Run(sched.String(), func(t *testing.T) {
			d, res, err := ElkinNeiman(g, NewFullRandomness(7), nil, ENConfig{Exec: exec})
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "elkin-neiman", goldenAccounting{176, 37527, 1668480, 56},
				res.Rounds, res.Messages, res.BitsTotal, res.MaxMessageBits)
			assertEngine(t, "elkin-neiman", exec, res.Telemetry)
			if d.NumColors() != 8 {
				t.Errorf("elkin-neiman colors = %d, want 8", d.NumColors())
			}

			colors, cres, err := RandomizedColoring(g, NewFullRandomness(2), nil, ColoringConfig{Exec: exec})
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "coloring", goldenAccounting{8, 1511, 24176, 16},
				cres.Rounds, cres.Messages, cres.BitsTotal, cres.MaxMessageBits)
			assertEngine(t, "coloring", exec, cres.Telemetry)
			if err := CheckColoring(g, colors, g.MaxDegree()+1); err != nil {
				t.Errorf("coloring invalid: %v", err)
			}

			in, lres, err := Luby(g, NewFullRandomness(1), nil, LubyConfig{Exec: exec})
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "luby", goldenAccounting{8, 1371, 37568, 40},
				lres.Rounds, lres.Messages, lres.BitsTotal, lres.MaxMessageBits)
			assertEngine(t, "luby", exec, lres.Telemetry)
			size := 0
			for _, b := range in {
				if b {
					size++
				}
			}
			if size != 82 {
				t.Errorf("luby MIS size = %d, want 82", size)
			}

			_, fres, err := ElectLeader(g, nil, 0, exec)
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "floodmin", goldenAccounting{201, 158000, 1266512, 16},
				fres.Rounds, fres.Messages, fres.BitsTotal, fres.MaxMessageBits)
			assertEngine(t, "floodmin", exec, fres.Telemetry)

			outs, bres, err := BFSTree(g, 0, nil, exec)
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "bfs-tree", goldenAccounting{214, 989, 14232, 16},
				bres.Rounds, bres.Messages, bres.BitsTotal, bres.MaxMessageBits)
			assertEngine(t, "bfs-tree", exec, bres.Telemetry)
			if outs[0].SubtreeSize != 200 {
				t.Errorf("bfs root subtree = %d, want 200", outs[0].SubtreeSize)
			}

			// The distributed checkers accept the solutions computed above.
			checkOpt := CheckOptions{Exec: exec}
			okMIS, _, err := CheckMISDistributedOpts(g, GreedyMIS(g, nil), checkOpt)
			if err != nil || !okMIS {
				t.Errorf("MIS checker: ok=%v err=%v", okMIS, err)
			}
			okCol, _, err := CheckColoringDistributedOpts(g, GreedyColoring(g, nil), g.MaxDegree()+1, checkOpt)
			if err != nil || !okCol {
				t.Errorf("coloring checker: ok=%v err=%v", okCol, err)
			}
			st := d.StatsOf(g)
			okDec, err := CheckDecompositionDistribOpts(g, d, 2*st.MaxDiameter+2, checkOpt)
			if err != nil || !okDec {
				t.Errorf("decomposition checker: ok=%v err=%v", okDec, err)
			}
		})
	}
}

// lubyBitGolden is one pinned LubyBit run: its accounting and |MIS|.
type lubyBitGolden struct {
	goldenAccounting
	mis int
}

// TestGoldenLubyBit pins the coin-flip Luby program's accounting and MIS
// size, packed and unpacked, on one worker and on three, over three graphs:
// the golden graph above, a 2^14-node gnp(6/n), and a dense gnp whose
// degrees all exceed 64, so every port mask spans several words and every
// node's plane window crosses word boundaries. The values were captured
// before the node-state layout of the packed path was rewritten (128-byte
// NodeCtx, interleaved plane words, 64-byte program structs); every
// representation and width must reproduce them exactly.
func TestGoldenLubyBit(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		seed uint64
		want lubyBitGolden
	}{
		{"golden-gnp200", GNPConnected(200, 4.0/200, NewRNG(1)), 3, lubyBitGolden{goldenAccounting{39, 734, 5872, 8}, 86}},
		{"gnp2^14", GNPConnected(1<<14, 6.0/(1<<14), NewRNG(5)), 9, lubyBitGolden{goldenAccounting{225, 80616, 644928, 8}, 5508}},
		{"dense-deg>64", GNPConnected(600, 100.0/600, NewRNG(8)), 4, lubyBitGolden{goldenAccounting{516, 43995, 351960, 8}, 27}},
	}
	for _, c := range cases {
		if c.name == "dense-deg>64" && c.g.MaxDegree() <= 64 {
			t.Fatalf("%s: max degree %d, want > 64", c.name, c.g.MaxDegree())
		}
		for _, unpacked := range []bool{false, true} {
			for _, exec := range []ExecOptions{
				{Scheduler: SchedulerSequential},
				{Scheduler: SchedulerParallel, Workers: 3},
			} {
				label := fmt.Sprintf("%s/unpacked=%v/workers=%d", c.name, unpacked, max(exec.Workers, 1))
				in, res, err := LubyBit(c.g, NewFullRandomness(c.seed), nil, LubyBitConfig{Unpacked: unpacked, Exec: exec})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				size := 0
				for _, b := range in {
					if b {
						size++
					}
				}
				assertGolden(t, label, c.want.goldenAccounting, res.Rounds, res.Messages, res.BitsTotal, res.MaxMessageBits)
				if size != c.want.mis {
					t.Errorf("%s: |MIS| = %d, want %d", label, size, c.want.mis)
				}
			}
		}
	}
}
