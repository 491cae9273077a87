package experiments

import (
	"fmt"

	"randlocal/internal/check"
	"randlocal/internal/coloring"
	"randlocal/internal/decomp"
	"randlocal/internal/derand"
	"randlocal/internal/graph"
	"randlocal/internal/mis"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
	"randlocal/internal/slocal"
	"randlocal/internal/splitting"
)

// --- E6 ---------------------------------------------------------------------

var e6Units = []string{"phases=1", "phases=2", "phases=4", "phases=full"}

func e6Sizes(opt Options) []int {
	if opt.Quick {
		return []int{300, 600}
	}
	return []int{300, 600, 1200}
}

func e6Phases(unit string) int {
	switch unit {
	case "phases=1":
		return 1
	case "phases=2":
		return 2
	case "phases=4":
		return 4
	default:
		return 0 // full strength
	}
}

// E6 measures Theorem 4.2: the shattering construction's leftover set and
// its (2t+1)-separated core, as a function of the strength of the randomized
// first phase. The separated-core size is the quantity the theorem's boosted
// error bound 1−n^{−Ω(K)} controls.
var E6 = &Experiment{
	ID:    "E6",
	Title: "Error-probability boosting by shattering (Thm 4.2)",
	Claim: "the (2t+1)-separated leftover core has size ≤ K with prob 1−n^{−Ω(K)}; the deterministic repair never fails",
	Specs: func(opt Options) []RunSpec {
		return sweep("E6", e6Units, e6Sizes(opt), trials(opt, 10))
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		g := graph.GNPConnected(spec.N, 3.0/float64(spec.N), prng.New(seed))
		res, err := decomp.Shattering(g, randomness.NewFull(seed+1), decomp.ShatteringConfig{ENPhases: e6Phases(spec.Unit), Exec: opt.Exec})
		if err != nil {
			return rec.fail(err.Error())
		}
		rec.set("repaired", boolVal(res.Decomposition.ValidateWeak(g, 0, 0) == nil))
		rec.set("leftover", float64(res.Leftover))
		rec.set("separated", float64(res.SeparatedLeftover))
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E6", []string{"n", "ENphases", "trials", "leftover(avg)", "leftover(max)", "separated(avg)", "separated(max)", "repairedOK"})
		tr := trials(opt, 10)
		for _, n := range e6Sizes(opt) {
			for _, unit := range e6Units {
				recs := rep.trialsOf("E6", unit, n, tr)
				l := summarize(collect(recs, "leftover"))
				s := summarize(collect(recs, "separated"))
				repaired := 0
				for _, v := range collect(recs, "repaired") {
					repaired += int(v)
				}
				label := itoa(e6Phases(unit))
				if e6Phases(unit) == 0 {
					label = "full"
				}
				t.AddRow(itoa(n), label, itoa(tr), f1(l.mean), d0(l.max), f1(s.mean), d0(s.max),
					fmt.Sprintf("%d/%d", repaired, tr))
			}
		}
		t.Notes = append(t.Notes,
			"weakening phase one (fewer ENphases) inflates the leftover set; the separated core stays tiny, and the deterministic repair always completes",
			"at full strength the leftover is empty and the error probability is governed solely by Pr[|separated| > K]")
		return t
	},
}

// --- E7 ---------------------------------------------------------------------

var e7LieDeclared = []int{128, 1024, 1 << 14}

func e7LieTrials(opt Options) int { return trials(opt, 20) }

// E7 measures Lemma 4.1 and Theorem 4.3: exhaustive seed search over all
// labeled graphs (the counting argument, executable at n=4), and the
// lying-about-n round-for-error trade on the Elkin–Neiman algorithm.
var E7 = &Experiment{
	ID:    "E7",
	Title: "Derandomization: seed search (Lemma 4.1) and lying about n (Thm 4.3)",
	Claim: "error < 1/|seedspace| on every instance ⇒ some seed works everywhere; declaring N≫n buys error δ(N) at cost T(N)",
	Specs: func(opt Options) []RunSpec {
		specs := []RunSpec{{Experiment: "E7", Unit: "seed-search", N: 4, Trial: 0}}
		for _, declared := range e7LieDeclared {
			for t := 0; t < e7LieTrials(opt); t++ {
				specs = append(specs, RunSpec{Experiment: "E7", Unit: fmt.Sprintf("lie/N=%d", declared), N: 128, Trial: t})
			}
		}
		return specs
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		if spec.Unit == "seed-search" {
			p := derand.NeighborhoodSplitting(3)
			instances := derand.AllGraphs(4)
			rec.set("instances", float64(len(instances)))
			res, err := derand.SeedSearch(p, instances, func(g *graph.Graph) []uint64 {
				return sim.SequentialIDs(g.N())
			}, 4096)
			if err != nil {
				return rec.fail("no universal seed (unexpected): " + err.Error())
			}
			failing := 0
			for _, f := range res.PerSeedFailures {
				if f > 0 {
					failing++
				}
			}
			rec.set("universalSeed", float64(res.Seed))
			rec.set("failingSeeds", float64(failing))
			rec.set("triedSeeds", float64(res.Tried))
			return rec
		}
		var declared int
		fmt.Sscanf(spec.Unit, "lie/N=%d", &declared)
		if declared == 0 {
			return rec.fail("unknown unit " + spec.Unit)
		}
		seed := spec.Seed(opt.Seed)
		// One graph shared across every declared-N row (and their trials):
		// the round-for-error trade is measured on a fixed instance.
		g := graph.GNPConnected(spec.N, 4.0/float64(spec.N), prng.New(spec.sharedSeed(opt.Seed, "graph")))
		cfg := derand.InflatedENConfig(declared)
		cfg.Exec = opt.Exec
		d, sres, err := decomp.ElkinNeiman(g, randomness.NewFull(seed), nil, cfg)
		if err != nil || d.Validate(g, 0, 0) != nil {
			rec.set("success", 0)
			return rec
		}
		rec.set("success", 1)
		rec.set("rounds", float64(sres.Rounds))
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E7", []string{"probe", "param", "value", "detail"})
		if rec := rep.Get("E7", "seed-search", 4, 0); rec != nil {
			if !rec.OK {
				t.AddRow("seed-search", "instances", d0(rec.val("instances")), "NO universal seed (unexpected)")
			} else {
				t.AddRow("seed-search", "instances", d0(rec.val("instances")), "all labeled 4-node graphs")
				t.AddRow("seed-search", "universal seed", d0(rec.val("universalSeed")),
					fmt.Sprintf("%.0f/%.0f seeds fail somewhere", rec.val("failingSeeds"), rec.val("triedSeeds")))
			}
		}
		for _, declared := range e7LieDeclared {
			tr := e7LieTrials(opt)
			recs := rep.trialsOf("E7", fmt.Sprintf("lie/N=%d", declared), 128, tr)
			fails := 0
			var rounds []float64
			for _, r := range recs {
				if r.OK && r.val("success") == 1 {
					rounds = append(rounds, r.val("rounds"))
				} else {
					fails++
				}
			}
			r := summarize(rounds)
			t.AddRow("lie-about-n", fmt.Sprintf("N=%d", declared), d0(r.mean)+" rounds",
				fmt.Sprintf("failures %d/%d; phaseLen grows with log N", fails, tr))
		}
		t.AddRow("lie-about-n", "required N for 2^{-n^2}", fmt.Sprintf("log2 N = %s", d0(derand.RequiredInflation(128, 2))),
			"Lemma 4.1 threshold at n=128 — astronomically large, as the theorem expects")
		return t
	},
}

// --- E8 ---------------------------------------------------------------------

var e8Units = []string{"MIS", "coloring"}

func e8Sizes(opt Options) []int {
	if opt.Quick {
		return []int{128, 256}
	}
	return []int{128, 256, 512}
}

// E8 measures the P-RLOCAL = P-SLOCAL pipeline: randomized Luby and
// trial-coloring versus their zero-randomness SLOCAL-compiled counterparts,
// with the round accounting of both.
var E8 = &Experiment{
	ID:    "E8",
	Title: "Derandomizing MIS and (Δ+1)-coloring through network decomposition (§1.1, GKM17/GHK18)",
	Claim: "greedy SLOCAL + decomposition of G³ ⇒ deterministic LOCAL MIS/coloring; randomness only buys rounds",
	Specs: func(opt Options) []RunSpec {
		return sweep("E8", e8Units, e8Sizes(opt), 1)
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		// MIS and coloring rows at one size compare on the same graph.
		g := graph.GNPConnected(spec.N, 4.0/float64(spec.N), prng.New(spec.sharedSeed(opt.Seed, "graph")))
		switch spec.Unit {
		case "MIS":
			src := randomness.NewFull(seed)
			in, lres, err := mis.Luby(g, src, nil, mis.LubyConfig{Exec: opt.Exec})
			if err != nil {
				return rec.fail("luby: " + err.Error())
			}
			dres, err := slocal.DerandomizedMIS(g)
			if err != nil {
				return rec.fail("derandomized MIS: " + err.Error())
			}
			randOK := check.MIS(g, in) == nil
			detOK := check.MIS(g, dres.Outputs) == nil
			if !randOK || !detOK {
				rec.fail(fmt.Sprintf("randomized valid=%v deterministic valid=%v", randOK, detOK))
			}
			rec.set("randRounds", float64(lres.Rounds))
			rec.set("randBits", float64(src.Ledger().TrueBits()))
			rec.set("detRounds", float64(dres.AnalyticRounds))
		case "coloring":
			src := randomness.NewFull(seed)
			colors, cres, err := coloring.Randomized(g, src, nil, coloring.Config{Exec: opt.Exec})
			if err != nil {
				return rec.fail("randomized coloring: " + err.Error())
			}
			dcol, err := slocal.DerandomizedColoring(g)
			if err != nil {
				return rec.fail("derandomized coloring: " + err.Error())
			}
			randOK := check.Coloring(g, colors, g.MaxDegree()+1) == nil
			detOK := check.Coloring(g, dcol.Outputs, g.MaxDegree()+1) == nil
			if !randOK || !detOK {
				rec.fail(fmt.Sprintf("randomized valid=%v deterministic valid=%v", randOK, detOK))
			}
			rec.set("randRounds", float64(cres.Rounds))
			rec.set("randBits", float64(src.Ledger().TrueBits()))
			rec.set("detRounds", float64(dcol.AnalyticRounds))
		default:
			return rec.fail("unknown unit " + spec.Unit)
		}
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E8", []string{"problem", "graph", "n", "rand rounds", "rand bits", "det rounds", "det bits", "both valid"})
		for _, n := range e8Sizes(opt) {
			for _, unit := range e8Units {
				rec := rep.Get("E8", unit, n, 0)
				if rec == nil {
					continue
				}
				t.AddRow(unit, "gnp(4/n)", itoa(n), d0(rec.val("randRounds")), d0(rec.val("randBits")),
					d0(rec.val("detRounds")), "0", yesNo(rec.OK))
			}
		}
		t.Notes = append(t.Notes,
			"det rounds use the sequential-ball-carving decomposition of G³ (the P-SLOCAL-complete step): poly(log n) colors × cluster diameter",
			"a poly(log n)-round LOCAL decomposition here would settle P-LOCAL = P-RLOCAL — the paper's open problem")
		return t
	},
}

// --- E9 ---------------------------------------------------------------------

var e9Units = []string{"Luby", "Elkin–Neiman", "LowRand(3.1)", "SharedRand(3.6)", "EpsBias(3.4)", "SLOCAL-compile"}

func e9N(opt Options) int {
	if opt.Quick {
		return 512
	}
	return 1024
}

// e9Problem maps a unit to its problem column.
func e9Problem(unit string) string {
	switch unit {
	case "Luby", "SLOCAL-compile":
		return "MIS"
	case "EpsBias(3.4)":
		return "splitting"
	default:
		return "netdecomp"
	}
}

// E9 prints the randomness ledger across all algorithms at one size: the
// Section 3 story in one table, from Ω(n·polylog) private bits down to
// O(log n) shared bits and zero.
var E9 = &Experiment{
	ID:    "E9",
	Title: "Randomness ledger across algorithms (Section 3 framing)",
	Claim: "the same problems solved under shrinking randomness budgets: unbounded → 1 bit/ball → poly(log n) shared → 0",
	Specs: func(opt Options) []RunSpec {
		var specs []RunSpec
		for _, unit := range e9Units {
			specs = append(specs, RunSpec{Experiment: "E9", Unit: unit, N: e9N(opt), Trial: 0})
		}
		return specs
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		n := spec.N
		switch spec.Unit {
		case "Luby":
			// Luby, Elkin–Neiman and SharedRand rows probe the same graph,
			// so the ledger compares budgets on one instance.
			g := graph.GNPConnected(n, 4.0/float64(n), prng.New(spec.sharedSeed(opt.Seed, "graph")))
			src := randomness.NewFull(seed)
			in, _, err := mis.Luby(g, src, nil, mis.LubyConfig{Exec: opt.Exec})
			if err != nil || check.MIS(g, in) != nil {
				rec.fail("invalid MIS")
			}
			rec.set("n", float64(n))
			rec.set("trueBits", float64(src.Ledger().TrueBits()))
			rec.set("derivedBits", float64(src.Ledger().DerivedBits()))
		case "Elkin–Neiman":
			g := graph.GNPConnected(n, 4.0/float64(n), prng.New(spec.sharedSeed(opt.Seed, "graph")))
			src := randomness.NewFull(seed)
			d, _, err := decomp.ElkinNeiman(g, src, nil, decomp.ENConfig{Exec: opt.Exec})
			if err != nil || d.Validate(g, 0, 0) != nil {
				rec.fail("invalid decomposition")
			}
			rec.set("n", float64(n))
			rec.set("trueBits", float64(src.Ledger().TrueBits()))
			rec.set("derivedBits", float64(src.Ledger().DerivedBits()))
		case "LowRand(3.1)":
			ring := graph.Ring(2000)
			holders := decomp.GreedyDominatingSet(ring, 2)
			sparse, err := randomness.NewSparse(holders, 1, seed)
			if err != nil {
				return rec.fail(err.Error())
			}
			lres, err := decomp.LowRand(ring, sparse, holders, decomp.LowRandConfig{H: 2, BitsPerCluster: 64, RulingAlphaFactor: 4})
			if err != nil || lres.Decomposition.Validate(ring, 0, 0) != nil {
				rec.fail("invalid decomposition")
			}
			rec.set("n", float64(ring.N()))
			rec.set("trueBits", float64(sparse.Ledger().TrueBits()))
			rec.set("derivedBits", float64(sparse.Ledger().DerivedBits()))
		case "SharedRand(3.6)":
			g := graph.GNPConnected(n, 4.0/float64(n), prng.New(spec.sharedSeed(opt.Seed, "graph")))
			shared := randomness.NewShared(300_000, prng.New(seed))
			sres, err := decomp.SharedRand(g, shared, decomp.SharedRandConfig{})
			if err != nil || sres.Decomposition.Validate(g, 0, 0) != nil {
				rec.fail("invalid decomposition")
			} else {
				rec.set("trueBits", float64(sres.SeedBitsUsed))
			}
			rec.set("n", float64(n))
			rec.set("derivedBits", float64(shared.Ledger().DerivedBits()))
		case "EpsBias(3.4)":
			inst := splitting.RandomInstance(n/8, n/2, 40, prng.New(spec.instanceSeed(opt.Seed)))
			gen, err := randomness.NewEpsBias(24, prng.New(seed))
			if err != nil {
				return rec.fail(err.Error())
			}
			colors := splitting.SolveEpsBias(inst, gen)
			if !inst.Check(colors) {
				rec.fail("splitting check failed")
			}
			rec.set("n", float64(n/2))
			rec.set("trueBits", float64(gen.SeedBits()))
			rec.set("derivedBits", 0)
		case "SLOCAL-compile":
			small := graph.GNPConnected(256, 4.0/256, prng.New(spec.instanceSeed(opt.Seed)))
			dres, err := slocal.DerandomizedMIS(small)
			if err != nil || check.MIS(small, dres.Outputs) != nil {
				rec.fail("invalid MIS")
			}
			rec.set("n", 256)
			rec.set("trueBits", 0)
			rec.set("derivedBits", 0)
		default:
			return rec.fail("unknown unit " + spec.Unit)
		}
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E9", []string{"algorithm", "problem", "n", "true bits", "bits/node", "derived bits", "valid"})
		for _, unit := range e9Units {
			rec := rep.Get("E9", unit, e9N(opt), 0)
			if rec == nil {
				continue
			}
			nn := rec.val("n")
			perNode := "0.00"
			if nn > 0 {
				perNode = f2(rec.val("trueBits") / nn)
			}
			t.AddRow(unit, e9Problem(unit), d0(nn), d0(rec.val("trueBits")), perNode,
				d0(rec.val("derivedBits")), yesNo(rec.OK))
		}
		return t
	},
}
