package randlocal

// Golden message-accounting tests for the Outbox + arena migration of the
// node programs. The expected values were captured from the heap-allocating
// (pre-migration) implementations at commit 128a373 with these exact graphs
// and seeds; asserting them here proves the zero-alloc rewrite changed how
// payloads are stored, not what is sent — message counts, total bits, max
// message size and round counts are byte-identical — and asserting them
// under every scheduler folds in the engine-equivalence guarantee. The runs
// execute with the poisoned-Outbox check enabled, so they also verify every
// migrated program honors the Outbox contract.

import "testing"

type goldenAccounting struct {
	rounds  int
	msgs    int64
	bits    int64
	maxBits int
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
	defer SetDefaultScheduler(SchedulerSequential, 0)
	for _, sched := range []Scheduler{SchedulerSequential, SchedulerParallel} {
		SetDefaultScheduler(sched, 3)
		t.Run(sched.String(), func(t *testing.T) {
			d, res, err := ElkinNeiman(g, NewFullRandomness(7), nil, ENConfig{})
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "elkin-neiman", goldenAccounting{176, 37527, 1668480, 56},
				res.Rounds, res.Messages, res.BitsTotal, res.MaxMessageBits)
			if d.NumColors() != 8 {
				t.Errorf("elkin-neiman colors = %d, want 8", d.NumColors())
			}

			colors, cres, err := RandomizedColoring(g, NewFullRandomness(2), nil, ColoringConfig{})
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "coloring", goldenAccounting{8, 1511, 24176, 16},
				cres.Rounds, cres.Messages, cres.BitsTotal, cres.MaxMessageBits)
			if err := CheckColoring(g, colors, g.MaxDegree()+1); err != nil {
				t.Errorf("coloring invalid: %v", err)
			}

			in, lres, err := Luby(g, NewFullRandomness(1), nil, LubyConfig{})
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "luby", goldenAccounting{8, 1371, 37568, 40},
				lres.Rounds, lres.Messages, lres.BitsTotal, lres.MaxMessageBits)
			size := 0
			for _, b := range in {
				if b {
					size++
				}
			}
			if size != 82 {
				t.Errorf("luby MIS size = %d, want 82", size)
			}

			_, fres, err := ElectLeader(g, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "floodmin", goldenAccounting{201, 158000, 1266512, 16},
				fres.Rounds, fres.Messages, fres.BitsTotal, fres.MaxMessageBits)

			outs, bres, err := BFSTree(g, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, "bfs-tree", goldenAccounting{214, 989, 14232, 16},
				bres.Rounds, bres.Messages, bres.BitsTotal, bres.MaxMessageBits)
			if outs[0].SubtreeSize != 200 {
				t.Errorf("bfs root subtree = %d, want 200", outs[0].SubtreeSize)
			}

			// The distributed checkers accept the solutions computed above.
			okMIS, _, err := CheckMISDistributed(g, GreedyMIS(g, nil))
			if err != nil || !okMIS {
				t.Errorf("MIS checker: ok=%v err=%v", okMIS, err)
			}
			okCol, _, err := CheckColoringDistributed(g, GreedyColoring(g, nil), g.MaxDegree()+1)
			if err != nil || !okCol {
				t.Errorf("coloring checker: ok=%v err=%v", okCol, err)
			}
			st := d.StatsOf(g)
			okDec, err := CheckDecompositionDistrib(g, d, 2*st.MaxDiameter+2)
			if err != nil || !okDec {
				t.Errorf("decomposition checker: ok=%v err=%v", okDec, err)
			}
		})
	}
}
