package experiments

import (
	"fmt"
	"os"
	"strings"

	"randlocal/internal/check"
	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/graph/csrfile"
	"randlocal/internal/mis"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

// E11 is the engine-scale sweep the zero-alloc work unlocked: the paper's
// headline claims are asymptotic, so the round/bit columns are recorded as
// *curves* over n up to 2^23 — together with the per-round live-fringe
// trajectory (Result.ActivePerRound), whose geometric collapse is the
// shattering-tail shape the Theorem 4.2 analyses reason about. Each record
// keeps its full ActivePerRound curve in the JSON emission. From
// e11FileBackedMin up, the instance is built out of core: the generator
// streams into a temporary on-disk CSR file (peak heap O(n)) and the
// algorithms execute over the read-only mapping — the same GNPConnectedStream
// ≡ GNPConnected guarantee the csrfile tests pin means the records are
// seed-deterministic either way.

var e11Units = []string{"EN/gnp(4/n)", "Luby/gnp(4/n)"}

// e11FileBackedMin is the size from which E11 builds its instance through the
// out-of-core path instead of in RAM.
const e11FileBackedMin = 1 << 23

func e11Sizes(opt Options) []int {
	if opt.Quick {
		return []int{1 << 10, 1 << 12}
	}
	return []int{1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 23}
}

func e11Trials(opt Options, n int) int {
	if opt.Quick {
		return 1
	}
	if n >= 1<<20 {
		return 1 // one trial per run at engine scale; resume adds more
	}
	return 2
}

// e11RadiusCap matches BenchmarkENDecomp: capping the geometric radius draw
// at 8 keeps a phase at 10 rounds so the 2^20+ sweeps stay tractable while
// the message pattern (top-2 candidate floods on every live port) matches
// the real construction.
const e11RadiusCap = 8

// e11Graph builds the sweep's instance: in RAM below e11FileBackedMin,
// through the streaming builder + mmap loader at and above it. cleanup
// releases the mapping and removes the temporary file; it is non-nil exactly
// when err is nil.
func e11Graph(n int, seed uint64) (*graph.Graph, func(), error) {
	p := 4.0 / float64(n)
	if n < e11FileBackedMin {
		return graph.GNPConnected(n, p, prng.New(seed)), func() {}, nil
	}
	f, err := os.CreateTemp("", "e11-*.csr")
	if err != nil {
		return nil, nil, err
	}
	path := f.Name()
	f.Close()
	b, err := csrfile.NewBuilder(path, n)
	if err != nil {
		os.Remove(path)
		return nil, nil, err
	}
	graph.GNPConnectedStream(n, p, prng.New(seed), b.AddEdge)
	if _, err := b.Finalize(); err != nil {
		os.Remove(path)
		return nil, nil, err
	}
	g, closer, err := graph.OpenCSRFile(path)
	if err != nil {
		os.Remove(path)
		return nil, nil, err
	}
	return g, func() {
		closer.Close()
		os.Remove(path)
	}, nil
}

var E11 = &Experiment{
	ID:    "E11",
	Title: "Scale sweep to n = 2^23: round/bit scaling and the shattering tail",
	Claim: "rounds/log² n (EN) and rounds/log n (Luby) stay flat to n = 2^23; ActivePerRound collapses geometrically (the shattering tail)",
	Specs: func(opt Options) []RunSpec {
		var specs []RunSpec
		for _, n := range e11Sizes(opt) {
			for _, unit := range e11Units {
				for t := 0; t < e11Trials(opt, n); t++ {
					specs = append(specs, RunSpec{Experiment: "E11", Unit: unit, N: n, Trial: t})
				}
			}
		}
		return specs
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		n := spec.N
		g, cleanup, err := e11Graph(n, seed)
		if err != nil {
			return rec.fail(err.Error())
		}
		defer cleanup()
		switch {
		case strings.HasPrefix(spec.Unit, "EN/"):
			d, res, err := decomp.ElkinNeiman(g, randomness.NewFull(seed+1), nil, decomp.ENConfig{RadiusCap: e11RadiusCap, Exec: opt.Exec})
			if err != nil {
				return rec.fail(err.Error())
			}
			if err := d.Validate(g, 0, 0); err != nil {
				return rec.fail(err.Error())
			}
			st := d.StatsOf(g)
			rec.set("colors", float64(st.Colors))
			rec.set("diam", float64(st.MaxDiameter))
			rec.set("rounds", float64(res.Rounds))
			rec.set("messages", float64(res.Messages))
			rec.set("bits", float64(res.BitsTotal))
			rec.set("maxMsgBits", float64(res.MaxMessageBits))
			rec.Curve = res.ActivePerRound
		case strings.HasPrefix(spec.Unit, "Luby/"):
			in, res, err := mis.Luby(g, randomness.NewFull(seed+1), nil, mis.LubyConfig{Exec: opt.Exec})
			if err != nil {
				return rec.fail(err.Error())
			}
			if err := check.MIS(g, in); err != nil {
				return rec.fail(err.Error())
			}
			rec.set("rounds", float64(res.Rounds))
			rec.set("messages", float64(res.Messages))
			rec.set("bits", float64(res.BitsTotal))
			rec.set("maxMsgBits", float64(res.MaxMessageBits))
			rec.Curve = res.ActivePerRound
		default:
			return rec.fail("unknown unit " + spec.Unit)
		}
		// Tail shape: the first round where the live fringe is at or below
		// 1% of n, and how many rounds the run then spends in that tail.
		tailStart := len(rec.Curve)
		for r, a := range rec.Curve {
			if a*100 <= n {
				tailStart = r
				break
			}
		}
		rec.set("tailStart", float64(tailStart))
		rec.set("tailRounds", float64(len(rec.Curve)-tailStart))
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E11", []string{"algo", "n", "rounds", "rnds/lg", "rnds/lg²", "messages", "bits/node", "maxMsg", "act≤1%@r", "tail", "trials", "failures"})
		for _, unit := range e11Units {
			algo := unit[:strings.IndexByte(unit, '/')]
			for _, n := range e11Sizes(opt) {
				recs := rep.trialsOf("E11", unit, n, e11Trials(opt, n))
				if len(recs) == 0 {
					continue
				}
				r := summarize(collect(recs, "rounds"))
				msgs := summarize(collect(recs, "messages"))
				bits := summarize(collect(recs, "bits"))
				maxMsg := summarize(collect(recs, "maxMsgBits"))
				tailStart := summarize(collect(recs, "tailStart"))
				tailRounds := summarize(collect(recs, "tailRounds"))
				t.AddRow(algo, itoa(n), d0(r.mean),
					fmt.Sprintf("%.2f", r.mean/lg2(n)),
					fmt.Sprintf("%.2f", r.mean/(lg2(n)*lg2(n))),
					d0(msgs.mean), f1(bits.mean/float64(n)), d0(maxMsg.max),
					d0(tailStart.mean), d0(tailRounds.mean), itoa(len(recs)), itoa(failures(recs)))
			}
		}
		// Shattering-tail curves: the largest size's live-fringe
		// trajectory, downsampled to at most 24 points per unit.
		for _, unit := range e11Units {
			ns := e11Sizes(opt)
			big := ns[len(ns)-1]
			rec := rep.Get("E11", unit, big, 0)
			if rec == nil || len(rec.Curve) == 0 {
				continue
			}
			t.Notes = append(t.Notes, fmt.Sprintf("ActivePerRound %s n=%d (every %d rounds): %s",
				unit, big, sampleStep(len(rec.Curve), 24), sparkline(rec.Curve, 24)))
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("EN runs with RadiusCap=%d (the BenchmarkENDecomp setting) so a phase is %d rounds; the scaling columns compare like against like across n", e11RadiusCap, e11RadiusCap+2),
			fmt.Sprintf("n >= %d rows run out of core: the instance streams into a temporary on-disk CSR file and the algorithms execute over its read-only mapping", e11FileBackedMin),
			"full per-round curves for every record are in the JSON emission (active_per_round)")
		return t
	},
}

// sampleStep returns the stride that downsamples length points to at most
// maxPoints.
func sampleStep(length, maxPoints int) int {
	step := (length + maxPoints - 1) / maxPoints
	if step < 1 {
		step = 1
	}
	return step
}

// sparkline renders a curve as a short series of sampled counts.
func sparkline(curve []int, maxPoints int) string {
	step := sampleStep(len(curve), maxPoints)
	var b strings.Builder
	for i := 0; i < len(curve); i += step {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", curve[i])
	}
	if (len(curve)-1)%step != 0 {
		fmt.Fprintf(&b, " %d", curve[len(curve)-1])
	}
	return b.String()
}
