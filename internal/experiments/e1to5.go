package experiments

import (
	"fmt"
	"strings"

	"randlocal/internal/check"
	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/hypergraph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/splitting"
)

func sizes(opt Options) []int {
	if opt.Quick {
		return []int{256, 1024}
	}
	return []int{256, 1024, 4096}
}

func trials(opt Options, full int) int {
	if opt.Quick {
		if full > 4 {
			return 4
		}
		return full
	}
	return full
}

// sweep expands a unit × size × trial cross product into specs, sizes
// outermost — the same order the tables present.
func sweep(id string, units []string, ns []int, trialCount int) []RunSpec {
	var specs []RunSpec
	for _, n := range ns {
		for _, unit := range units {
			for t := 0; t < trialCount; t++ {
				specs = append(specs, RunSpec{Experiment: id, Unit: unit, N: n, Trial: t})
			}
		}
	}
	return specs
}

// --- E1 ---------------------------------------------------------------------

var e1Units = []string{"gnp(4/n)", "ring", "tree"}

func e1Trials(opt Options) int { return trials(opt, 8) }

// E1 measures the [EN16] baseline of Section 2: an (O(log n), O(log n))
// strong-diameter decomposition in O(log² n) CONGEST rounds w.h.p. The
// normalized columns (x/log n, rounds/log² n) must stay flat as n grows for
// the claim's shape to hold.
var E1 = &Experiment{
	ID:    "E1",
	Title: "Elkin–Neiman randomized network decomposition (baseline)",
	Claim: "(O(log n), O(log n)) decomposition, O(log² n) CONGEST rounds, w.h.p. [§2, EN16]",
	Specs: func(opt Options) []RunSpec {
		return sweep("E1", e1Units, sizes(opt), e1Trials(opt))
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		rng := prng.New(seed)
		var g *graph.Graph
		switch spec.Unit {
		case "gnp(4/n)":
			g = graph.GNPConnected(spec.N, 4.0/float64(spec.N), rng)
		case "ring":
			g = graph.Ring(spec.N)
		case "tree":
			g = graph.RandomTree(spec.N, rng)
		default:
			return rec.fail("unknown unit " + spec.Unit)
		}
		d, res, err := decomp.ElkinNeiman(g, randomness.NewFull(seed+1), nil, decomp.ENConfig{Exec: opt.Exec})
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
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E1", []string{"graph", "n", "colors", "colors/lg", "diam", "diam/lg", "rounds", "rnds/lg²", "failures"})
		for _, n := range sizes(opt) {
			for _, unit := range e1Units {
				recs := rep.trialsOf("E1", unit, n, e1Trials(opt))
				c := summarize(collect(recs, "colors"))
				dm := summarize(collect(recs, "diam"))
				r := summarize(collect(recs, "rounds"))
				t.AddRow(unit, itoa(n), f1(c.mean), ratio(c.mean, n), f1(dm.mean), ratio(dm.mean, n),
					d0(r.mean), fmt.Sprintf("%.2f", r.mean/(lg2(n)*lg2(n))), itoa(failures(recs)))
			}
		}
		return t
	},
}

// tableFor seeds a Table with an experiment's metadata, resolved by ID at
// call time (a direct variable reference from inside the experiment's own
// initializer would be an initialization cycle).
func tableFor(id string, columns []string) *Table {
	exp := ByID(id)
	return &Table{ID: exp.ID, Title: exp.Title, Claim: exp.Claim, Columns: columns}
}

// --- E2 ---------------------------------------------------------------------

var e2Units = []string{"Thm3.1/ring", "Thm3.1/cliques", "Thm3.7/ring", "Thm3.7/cliques"}

func e2Sizes(opt Options) []int {
	if opt.Quick {
		return []int{1000}
	}
	return []int{1000, 2000}
}

// e2Instance reconstructs a unit's graph and configuration.
func e2Instance(unit string, n int) (g *graph.Graph, h int, cfg decomp.LowRandConfig) {
	switch {
	case strings.HasSuffix(unit, "/ring"):
		return graph.Ring(n), 2, decomp.LowRandConfig{H: 2, BitsPerCluster: 64, RulingAlphaFactor: 4}
	default: // "/cliques"
		return graph.RingOfCliques(n/4, 4), 1, decomp.LowRandConfig{H: 1, BitsPerCluster: 24, RulingAlphaFactor: 2}
	}
}

// E2 measures Theorem 3.1/3.7: decompositions from one private bit per
// h-hop ball. The bits column is the total true randomness in the network —
// the resource the theorem says suffices.
var E2 = &Experiment{
	ID:    "E2",
	Title: "One bit of private randomness per poly(log n) hops (Thm 3.1 & 3.7)",
	Claim: "(O(log n), h·polylog n) decomposition from |holders| single bits; Thm 3.7 removes the h factor",
	Specs: func(opt Options) []RunSpec {
		return sweep("E2", e2Units, e2Sizes(opt), 1)
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		g, h, cfg := e2Instance(spec.Unit, spec.N)
		holders := decomp.GreedyDominatingSet(g, h)
		rec.set("h", float64(h))
		rec.set("holders", float64(len(holders)))
		if spec.Unit[:6] == "Thm3.1" {
			src, err := randomness.NewSparse(holders, 1, seed)
			if err != nil {
				return rec.fail(err.Error())
			}
			res, err := decomp.LowRand(g, src, holders, cfg)
			if err != nil {
				return rec.fail(err.Error())
			}
			if err := res.Decomposition.Validate(g, 0, 0); err != nil {
				return rec.fail(err.Error())
			}
			rec.set("bits", float64(len(holders)))
			rec.set("colors", float64(res.Decomposition.NumColors()))
			rec.set("maxDiam", float64(res.Decomposition.MaxClusterDiameter(g)))
			rec.set("preClusters", float64(res.DistinctPreClusters()))
			return rec
		}
		src, err := randomness.NewSparse(holders, 48, seed+1)
		if err != nil {
			return rec.fail(err.Error())
		}
		res, err := decomp.StrongLowRand(g, src, holders, cfg)
		if err != nil {
			return rec.fail(err.Error())
		}
		if err := res.Decomposition.Validate(g, 0, 0); err != nil {
			return rec.fail(err.Error())
		}
		rec.set("bits", float64(res.BitsGathered))
		rec.set("colors", float64(res.Decomposition.NumColors()))
		rec.set("maxDiam", float64(res.Decomposition.MaxClusterDiameter(g)))
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E2", []string{"variant", "graph", "n", "h", "holders", "bits", "colors", "maxDiam", "preClusters", "ok"})
		for _, n := range e2Sizes(opt) {
			for _, unit := range e2Units {
				rec := rep.Get("E2", unit, n, 0)
				if rec == nil {
					continue
				}
				variant, gname := unit[:6], unit[7:]
				pre := "-"
				if rec.OK && variant == "Thm3.1" {
					pre = d0(rec.val("preClusters"))
				}
				// Both unit families build exactly n nodes (Ring(n),
				// RingOfCliques(n/4, 4)); no need to rebuild the graph here.
				t.AddRow(variant, gname, itoa(n), d0(rec.val("h")), d0(rec.val("holders")),
					d0(rec.val("bits")), d0(rec.val("colors")), d0(rec.val("maxDiam")), pre, yesNo(rec.OK))
			}
		}
		t.Notes = append(t.Notes,
			"Thm3.1 rows: exactly one true random bit per holder in the whole network.",
			"Thm3.7 rows: holders carry the poly(log n)-bit budget the theorem gathers per cluster; diameter no longer scales with h'.")
		return t
	},
}

// --- E3 ---------------------------------------------------------------------

var e3Units = []string{"private", "k-wise(16)", "eps-bias", "cond-exp(det)"}

// e3Scales maps the V-side size to the instance shape.
var e3Scales = []struct{ nu, nv, deg int }{{100, 500, 40}, {200, 1000, 60}}

func e3Trials(opt Options, unit string) int {
	if unit == "cond-exp(det)" {
		return 1
	}
	return trials(opt, 200)
}

// e3SeedBits reports the randomness budget column of a unit.
func e3SeedBits(unit string, nv int) int {
	switch unit {
	case "private":
		return nv
	case "k-wise(16)":
		return 16 * 32
	case "eps-bias":
		return 48
	default:
		return 0
	}
}

// E3 measures Lemma 3.4: the splitting problem solved in zero rounds under
// shrinking randomness budgets, from Ω(n) private bits down to O(log n)
// shared bits (the Naor–Naor route).
var E3 = &Experiment{
	ID:    "E3",
	Title: "Splitting in zero rounds vs randomness budget (Lemma 3.4)",
	Claim: "success ≥ 1−1/n with O(log n) shared bits (ε-bias) or O(log² n) (k-wise); zero rounds in all regimes",
	Specs: func(opt Options) []RunSpec {
		var specs []RunSpec
		for _, scale := range e3Scales {
			for _, unit := range e3Units {
				for t := 0; t < e3Trials(opt, unit); t++ {
					specs = append(specs, RunSpec{Experiment: "E3", Unit: unit, N: scale.nv, Trial: t})
				}
			}
		}
		return specs
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		var scale struct{ nu, nv, deg int }
		for _, s := range e3Scales {
			if s.nv == spec.N {
				scale = s
			}
		}
		if scale.nv == 0 {
			return rec.fail("unknown scale")
		}
		// One instance per scale, shared across every regime and trial —
		// the controlled comparison the rate column implies; only the
		// solver's randomness is per-trial.
		inst := splitting.RandomInstance(scale.nu, scale.nv, scale.deg, prng.New(spec.sharedSeed(opt.Seed, "instance")))
		seed := spec.Seed(opt.Seed)
		var ok bool
		switch spec.Unit {
		case "private":
			ok = inst.Check(splitting.SolvePrivate(inst, randomness.NewFull(seed)))
		case "k-wise(16)":
			fam, err := randomness.NewKWise(16, 32, prng.New(seed))
			ok = err == nil && inst.Check(splitting.SolveKWise(inst, fam))
		case "eps-bias":
			gen, err := randomness.NewEpsBias(24, prng.New(seed))
			ok = err == nil && inst.Check(splitting.SolveEpsBias(inst, gen))
		case "cond-exp(det)":
			colors, err := splitting.ConditionalExpectations(inst)
			ok = err == nil && inst.Check(colors)
		default:
			return rec.fail("unknown unit " + spec.Unit)
		}
		rec.set("success", boolVal(ok))
		rec.set("deg", float64(scale.deg))
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E3", []string{"regime", "n(V)", "deg", "seed bits", "trials", "successes", "rate"})
		for _, scale := range e3Scales {
			for _, unit := range e3Units {
				tr := e3Trials(opt, unit)
				recs := rep.trialsOf("E3", unit, scale.nv, tr)
				succ := 0
				for _, v := range collect(recs, "success") {
					succ += int(v)
				}
				t.AddRow(unit, itoa(scale.nv), itoa(scale.deg), itoa(e3SeedBits(unit, scale.nv)),
					itoa(tr), itoa(succ), f2(float64(succ)/float64(tr)))
			}
		}
		t.Notes = append(t.Notes, "all regimes run in zero communication rounds: colors are functions of (seed, own ID) only")
		return t
	},
}

// --- E4 ---------------------------------------------------------------------

var e4MarkKs = []int{2, 8, 32, 96}
var e4RadiiKs = []int{2, 8, 64}

func e4RadiiN(opt Options) int {
	if opt.Quick {
		return 256
	}
	return 512
}

// e4Hypergraph builds the fixed marking instance every CFMC trial probes.
func e4Hypergraph(opt Options, n int) *hypergraph.Hypergraph {
	rng := prng.New(RunSpec{Experiment: "E4", Unit: "hypergraph", N: n}.Seed(opt.Seed))
	h := &hypergraph.Hypergraph{N: n}
	for e := 0; e < 25; e++ {
		size := 64 + rng.Intn(64)
		perm := rng.Perm(n)
		h.Edges = append(h.Edges, append([]int(nil), perm[:size]...))
	}
	return h
}

// E4 measures Theorem 3.5: poly(log n)-wise independence suffices. Two
// probes: (a) the conflict-free multi-coloring pipeline's marking step as a
// function of k, and (b) the Elkin–Neiman decomposition with radii drawn
// from a k-wise family instead of fresh coins.
var E4 = &Experiment{
	ID:    "E4",
	Title: "Limited independence suffices (Thm 3.5)",
	Claim: "Θ(log² n)-wise independent bits suffice for CFMC marking and for the decomposition itself",
	Specs: func(opt Options) []RunSpec {
		var specs []RunSpec
		for _, k := range e4MarkKs {
			for t := 0; t < trials(opt, 30); t++ {
				specs = append(specs, RunSpec{Experiment: "E4", Unit: fmt.Sprintf("CFMC-mark/k=%d", k), N: 600, Trial: t})
			}
		}
		for _, k := range e4RadiiKs {
			for t := 0; t < trials(opt, 10); t++ {
				specs = append(specs, RunSpec{Experiment: "E4", Unit: fmt.Sprintf("EN-radii/k=%d", k), N: e4RadiiN(opt), Trial: t})
			}
		}
		return specs
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		var k int
		switch {
		case len(spec.Unit) > 12 && spec.Unit[:12] == "CFMC-mark/k=":
			fmt.Sscanf(spec.Unit[12:], "%d", &k)
			h := e4Hypergraph(opt, spec.N)
			fam, err := randomness.NewKWise(k, 64, prng.New(seed))
			if err != nil {
				return rec.fail(err.Error())
			}
			res, err := hypergraph.Solve(h, fam, 8, 12)
			ok := err == nil && check.ConflictFree(h.Edges, res.ColorSets) == nil
			rec.set("success", boolVal(ok))
			if ok {
				rec.set("markedMin", float64(res.MarkedMin))
				rec.set("markedMax", float64(res.MarkedMax))
			}
			return rec
		case len(spec.Unit) > 11 && spec.Unit[:11] == "EN-radii/k=":
			fmt.Sscanf(spec.Unit[11:], "%d", &k)
			g := graph.GNPConnected(spec.N, 4.0/float64(spec.N), prng.New(seed))
			fam, err := randomness.NewKWise(k, 64, prng.New(seed+1))
			if err != nil {
				return rec.fail(err.Error())
			}
			lg := 0
			for 1<<lg < spec.N {
				lg++
			}
			cap := 2*lg + 4
			cfg := decomp.ENConfig{Exec: opt.Exec}
			cfg.Radius = func(v, phase int) int {
				for j := 0; j < cap; j++ {
					if fam.Bit(uint64(v)*4096+uint64(phase)*64+uint64(j)) == 0 {
						return j + 1
					}
				}
				return cap
			}
			d, _, err := decomp.ElkinNeiman(g, randomness.NewFull(1), nil, cfg)
			rec.set("success", boolVal(err == nil && d.Validate(g, 0, 0) == nil))
			return rec
		}
		return rec.fail("unknown unit " + spec.Unit)
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E4", []string{"probe", "n", "k", "trials", "successes", "rate", "detail"})
		for _, k := range e4MarkKs {
			tr := trials(opt, 30)
			recs := rep.trialsOf("E4", fmt.Sprintf("CFMC-mark/k=%d", k), 600, tr)
			succ := 0
			minMark, maxMark := 1<<30, 0
			for _, r := range recs {
				if r.OK && r.val("success") == 1 {
					succ++
					if m := int(r.val("markedMin")); m < minMark {
						minMark = m
					}
					if m := int(r.val("markedMax")); m > maxMark {
						maxMark = m
					}
				}
			}
			detail := "-"
			if succ > 0 {
				detail = fmt.Sprintf("marked∈[%d,%d]", minMark, maxMark)
			}
			t.AddRow("CFMC-mark", itoa(600), itoa(k), itoa(tr), itoa(succ), f2(float64(succ)/float64(tr)), detail)
		}
		for _, k := range e4RadiiKs {
			tr := trials(opt, 10)
			recs := rep.trialsOf("E4", fmt.Sprintf("EN-radii/k=%d", k), e4RadiiN(opt), tr)
			succ := 0
			for _, v := range collect(recs, "success") {
				succ += int(v)
			}
			t.AddRow("EN-radii", itoa(e4RadiiN(opt)), itoa(k), itoa(tr), itoa(succ), f2(float64(succ)/float64(tr)), "-")
		}
		t.Notes = append(t.Notes, "even tiny k often succeeds on random instances; the theorem guarantees Θ(log² n) against every graph")
		return t
	},
}

// --- E5 ---------------------------------------------------------------------

var e5Units = []string{"gnp(3/n)", "grid"}

func e5Sizes(opt Options) []int {
	if opt.Quick {
		return []int{256, 512}
	}
	return []int{256, 512, 1024}
}

// E5 measures Theorem 3.6: decomposition from poly(log n) shared bits only,
// in the CONGEST model.
var E5 = &Experiment{
	ID:    "E5",
	Title: "Shared randomness only (Thm 3.6)",
	Claim: "(O(log n), O(log² n)) decomposition with congestion 1 from poly(log n) shared bits, no private randomness",
	Specs: func(opt Options) []RunSpec {
		return sweep("E5", e5Units, e5Sizes(opt), 1)
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		var g *graph.Graph
		switch spec.Unit {
		case "gnp(3/n)":
			g = graph.GNPConnected(spec.N, 3.0/float64(spec.N), prng.New(seed))
		case "grid":
			s := isqrt(spec.N)
			g = graph.Grid(s, s)
		default:
			return rec.fail("unknown unit " + spec.Unit)
		}
		shared := randomness.NewShared(300_000, prng.New(seed+1))
		res, err := decomp.SharedRand(g, shared, decomp.SharedRandConfig{})
		if err != nil {
			return rec.fail(err.Error())
		}
		if err := res.Decomposition.Validate(g, 0, 0); err != nil {
			return rec.fail(err.Error())
		}
		rec.set("n", float64(g.N()))
		rec.set("seedBits", float64(res.SeedBitsUsed))
		rec.set("colors", float64(res.Decomposition.NumColors()))
		rec.set("maxDiam", float64(res.Decomposition.MaxClusterDiameter(g)))
		rec.set("phases", float64(res.Phases))
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E5", []string{"graph", "n", "seedBits", "colors", "colors/lg", "maxDiam", "diam/lg²", "phases", "ok"})
		for _, n := range e5Sizes(opt) {
			for _, unit := range e5Units {
				rec := rep.Get("E5", unit, n, 0)
				if rec == nil {
					continue
				}
				nn := int(rec.val("n"))
				if nn == 0 {
					nn = n
				}
				t.AddRow(unit, itoa(nn), d0(rec.val("seedBits")), d0(rec.val("colors")),
					ratio(rec.val("colors"), nn), d0(rec.val("maxDiam")),
					fmt.Sprintf("%.2f", rec.val("maxDiam")/(lg2(nn)*lg2(nn))), d0(rec.val("phases")), yesNo(rec.OK))
			}
		}
		return t
	},
}

func isqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
