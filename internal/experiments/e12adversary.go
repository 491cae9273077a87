package experiments

import (
	"fmt"
	"strings"

	"randlocal/internal/check"
	"randlocal/internal/coloring"
	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/mis"
	"randlocal/internal/sim"
)

// E12 exercises the adversary layer: the paper's algorithms are analyzed in
// a fault-free synchronous model, so the claims carry no robustness — this
// experiment measures how fast each guarantee degrades under message drops,
// delays, crash-stops, edge churn and adversarial scheduling, and verifies
// the Definition 2.2 checkers as one-sided oracles on faulted networks: a
// checker over a lossy network may false-reject a valid solution, but every
// invalid one is still caught (each forced "no" is computed from locally
// held inputs no fault can take away).

// e12Regimes are the fault budgets each algorithm unit is swept over; the
// clean regime is the control arm (by stream isolation it reproduces the
// fault-free run bit for bit).
var e12Regimes = []struct {
	name string
	cfg  sim.AdversaryConfig
}{
	{"clean", sim.AdversaryConfig{}},
	{"drop=0.02", sim.AdversaryConfig{DropProb: 0.02}},
	{"drop=0.10", sim.AdversaryConfig{DropProb: 0.10}},
	{"delay=0.10", sim.AdversaryConfig{DelayProb: 0.10, DelayMax: 3}},
	{"crash=1", sim.AdversaryConfig{CrashPerRound: 1}},
	{"stall=2", sim.AdversaryConfig{StallPerRound: 2}},
	{"churn=2", sim.AdversaryConfig{ChurnPerRound: 2, HealPerRound: 1}},
}

var e12Algos = []string{"Luby", "EN", "Coloring"}

// e12OracleUnits run each distributed checker itself over a faulted network
// (drop=0.10 + stall=2), on a valid and on a corrupted solution.
var e12OracleUnits = []string{"oracle/MIS", "oracle/coloring", "oracle/decomp", "oracle/splitting"}

var e12OracleBudget = sim.AdversaryConfig{DropProb: 0.10, StallPerRound: 2}

func e12Sizes(opt Options) []int {
	if opt.Quick {
		return []int{256}
	}
	return []int{512, 2048}
}

func e12Trials(opt Options) int {
	if opt.Quick {
		return 1
	}
	return 3
}

// e12Graph builds the unit-shared instance: all regimes of all units
// compare on one graph per size, drawn from the workload stream of a key
// every unit derives identically.
func e12Graph(opt Options, spec RunSpec, n int) *graph.Graph {
	key := sim.SimulationKey(spec.sharedSeed(opt.Seed, "graph"))
	return graph.GNPConnected(n, 4.0/float64(n), key.RNG().Workload())
}

var E12 = &Experiment{
	ID:    "E12",
	Title: "Faulty, churning, adversarially scheduled executions",
	Claim: "fault-free guarantees degrade at measurable rates under drops/delays/crashes/churn/stalls, every violation is caught by the distributed checkers, and faulted checkers stay one-sided oracles (false-rejects only)",
	Specs: func(opt Options) []RunSpec {
		var specs []RunSpec
		for _, n := range e12Sizes(opt) {
			for _, algo := range e12Algos {
				for _, reg := range e12Regimes {
					for t := 0; t < e12Trials(opt); t++ {
						specs = append(specs, RunSpec{Experiment: "E12", Unit: algo + "/" + reg.name, N: n, Trial: t})
					}
				}
			}
			for _, unit := range e12OracleUnits {
				for t := 0; t < e12Trials(opt); t++ {
					specs = append(specs, RunSpec{Experiment: "E12", Unit: unit, N: n, Trial: t})
				}
			}
		}
		return specs
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		if strings.HasPrefix(spec.Unit, "oracle/") {
			return e12RunOracle(opt, spec)
		}
		return e12RunAlgo(opt, spec)
	},
	Table: e12Table,
}

// e12Adversary builds the spec's adversary from its partitioned key: the
// fault coins come from the key's adversary stream, the algorithm coins
// from its algorithm stream, so the clean and faulted arms of a trial share
// the exact private-coin sequences.
func e12Adversary(key sim.SimulationKey, cfg sim.AdversaryConfig) *sim.Adversary {
	adv, err := sim.NewAdversary(key, cfg)
	if err != nil {
		panic(err) // static budgets; validated by construction
	}
	return adv
}

func e12RunAlgo(opt Options, spec RunSpec) *RunRecord {
	rec := newRecord(spec)
	algo, regime, _ := strings.Cut(spec.Unit, "/")
	var cfg sim.AdversaryConfig
	found := false
	for _, reg := range e12Regimes {
		if reg.name == regime {
			cfg, found = reg.cfg, true
		}
	}
	if !found {
		return rec.fail("unknown regime " + regime)
	}
	g := e12Graph(opt, spec, spec.N)
	key := spec.SimKey(opt.Seed)
	adv := e12Adversary(key, cfg)
	src := key.FullSource()

	var res interface {
		Accounting() (rounds int, messages int64, tel *sim.Telemetry)
	}
	switch algo {
	case "Luby":
		in, r, err := mis.Luby(g, src, nil, mis.LubyConfig{Adversary: adv, Exec: opt.Exec})
		if r == nil {
			return rec.fail(err.Error())
		}
		res = accountingOf{r.Rounds, r.Messages, r.Telemetry}
		rec.set("completed", boolVal(err == nil))
		valid := err == nil && check.MIS(g, in) == nil
		rec.set("valid", boolVal(valid))
		// Every completed-but-invalid output must be caught by the
		// fault-free distributed checker (Definition 2.2 as an oracle).
		if err == nil && !valid {
			all, _, cerr := check.MISDistributedOpts(g, in, check.Options{Exec: opt.Exec})
			if cerr != nil {
				return rec.fail(cerr.Error())
			}
			if all {
				return rec.fail("distributed checker missed an invalid MIS")
			}
			rec.set("caught", 1)
		}
	case "EN":
		d, r, err := decomp.ElkinNeiman(g, src, nil, decomp.ENConfig{RadiusCap: e11RadiusCap, Adversary: adv, Exec: opt.Exec})
		if r == nil {
			return rec.fail(err.Error())
		}
		res = accountingOf{r.Rounds, r.Messages, r.Telemetry}
		rec.set("completed", boolVal(err == nil))
		rec.set("valid", boolVal(err == nil && d.Validate(g, 0, 0) == nil))
	case "Coloring":
		colors, r, err := coloring.Randomized(g, src, nil, coloring.Config{Adversary: adv, Exec: opt.Exec})
		if r == nil {
			return rec.fail(err.Error())
		}
		res = accountingOf{r.Rounds, r.Messages, r.Telemetry}
		rec.set("completed", boolVal(err == nil))
		valid := err == nil && check.Coloring(g, colors, 0) == nil
		rec.set("valid", boolVal(valid))
		if err == nil && !valid {
			all, _, cerr := check.ColoringDistributedOpts(g, colors, 0, check.Options{Exec: opt.Exec})
			if cerr != nil {
				return rec.fail(cerr.Error())
			}
			if all {
				return rec.fail("distributed checker missed an improper coloring")
			}
			rec.set("caught", 1)
		}
	default:
		return rec.fail("unknown algorithm " + algo)
	}

	rounds, messages, tel := res.Accounting()
	rec.set("rounds", float64(rounds))
	rec.set("messages", float64(messages))
	if tel != nil {
		counts := map[sim.InjectKind]int{}
		for _, ev := range tel.Injected {
			counts[ev.Kind] += ev.Count
		}
		rec.set("lost", float64(counts[sim.InjectDrop]+counts[sim.InjectCut]+
			counts[sim.InjectSupersede]+counts[sim.InjectExpire]))
		rec.set("delayed", float64(counts[sim.InjectDelay]))
		rec.set("crashed", float64(counts[sim.InjectCrash]))
		rec.set("stalls", float64(counts[sim.InjectStall]))
		rec.set("churned", float64(counts[sim.InjectChurnDown]))
	}
	return rec
}

// accountingOf adapts the three wrappers' differently-typed Results to the
// few fields E12 reads.
type accountingOf struct {
	rounds   int
	messages int64
	tel      *sim.Telemetry
}

func (a accountingOf) Accounting() (int, int64, *sim.Telemetry) {
	return a.rounds, a.messages, a.tel
}

// e12RunOracle runs one distributed checker over a faulted network, once on
// a valid solution (measuring the false-reject rate) and once on a
// corrupted one (which must be rejected — a false accept fails the record).
func e12RunOracle(opt Options, spec RunSpec) *RunRecord {
	rec := newRecord(spec)
	g := e12Graph(opt, spec, spec.N)
	n := g.N()
	key := spec.SimKey(opt.Seed)
	checkOpt := check.Options{Adversary: e12Adversary(key, e12OracleBudget), Exec: opt.Exec}

	// Deterministic valid solutions on the shared instance.
	inMIS := make([]bool, n)
	colors := make([]int, n)
	for v := 0; v < n; v++ {
		ok := true
		used := map[int]bool{}
		for _, w := range g.Neighbors(v) {
			if inMIS[w] {
				ok = false
			}
			if int(w) < v {
				used[colors[w]] = true
			}
		}
		inMIS[v] = ok
		for used[colors[v]] {
			colors[v]++
		}
	}

	var acceptValid, acceptInvalid bool
	switch spec.Unit {
	case "oracle/MIS":
		av, _, err := check.MISDistributedOpts(g, inMIS, checkOpt)
		if err != nil {
			return rec.fail(err.Error())
		}
		bad := append([]bool(nil), inMIS...)
		bad[n/2] = !bad[n/2]
		ai, _, err := check.MISDistributedOpts(g, bad, checkOpt)
		if err != nil {
			return rec.fail(err.Error())
		}
		acceptValid, acceptInvalid = av, ai
	case "oracle/coloring":
		av, _, err := check.ColoringDistributedOpts(g, colors, 0, checkOpt)
		if err != nil {
			return rec.fail(err.Error())
		}
		bad := append([]int(nil), colors...)
		v := n / 2
		bad[v] = bad[g.Neighbors(v)[0]] // force one monochromatic edge
		ai, _, err := check.ColoringDistributedOpts(g, bad, 0, checkOpt)
		if err != nil {
			return rec.fail(err.Error())
		}
		acceptValid, acceptInvalid = av, ai
	case "oracle/decomp":
		// Singleton clusters with a proper coloring form a radius-1-checkable
		// valid decomposition; equating the colors of one edge's endpoints
		// corrupts it.
		clusters := make([]int, n)
		for v := range clusters {
			clusters[v] = v
		}
		d := &decomp.Decomposition{Cluster: clusters, Color: colors}
		av, err := check.DecompositionDistributedOpts(g, d, 1, checkOpt)
		if err != nil {
			return rec.fail(err.Error())
		}
		badColors := append([]int(nil), colors...)
		v := n / 2
		badColors[v] = badColors[g.Neighbors(v)[0]]
		ai, err := check.DecompositionDistributedOpts(g, &decomp.Decomposition{Cluster: clusters, Color: badColors}, 1, checkOpt)
		if err != nil {
			return rec.fail(err.Error())
		}
		acceptValid, acceptInvalid = av, ai
	case "oracle/splitting":
		nu, nv := n/2, n/2+n%2
		adjU := make([][]int, nu)
		for u := range adjU {
			adjU[u] = []int{(2 * u) % nv, (2*u + 1) % nv}
		}
		split := make([]int, nv)
		for v := range split {
			split[v] = v % 2
		}
		// The canonical wiring pairs an even with an odd V-node per U-node
		// when nv is even; force that so the valid arm is truly valid.
		if nv%2 == 1 {
			for u := range adjU {
				adjU[u] = []int{0, 1}
			}
		}
		av, err := check.SplittingDistributedOpts(adjU, nv, split, checkOpt)
		if err != nil {
			return rec.fail(err.Error())
		}
		ai, err := check.SplittingDistributedOpts(adjU, nv, make([]int, nv), checkOpt)
		if err != nil {
			return rec.fail(err.Error())
		}
		acceptValid, acceptInvalid = av, ai
	default:
		return rec.fail("unknown oracle unit " + spec.Unit)
	}

	rec.set("acceptValid", boolVal(acceptValid))
	rec.set("acceptInvalid", boolVal(acceptInvalid))
	if acceptInvalid {
		return rec.fail("faulted checker accepted an invalid solution (oracle property violated)")
	}
	return rec
}

func e12Table(opt Options, rep *Report) *Table {
	t := tableFor("E12", []string{"unit", "n", "done", "valid", "rounds", "messages", "lost", "delayed", "crashed", "stalls", "churned", "trials", "failures"})
	for _, algo := range e12Algos {
		for _, reg := range e12Regimes {
			unit := algo + "/" + reg.name
			for _, n := range e12Sizes(opt) {
				recs := rep.trialsOf("E12", unit, n, e12Trials(opt))
				if len(recs) == 0 {
					continue
				}
				done := summarize(collect(recs, "completed"))
				valid := summarize(collect(recs, "valid"))
				rounds := summarize(collect(recs, "rounds"))
				msgs := summarize(collect(recs, "messages"))
				t.AddRow(unit, itoa(n),
					fmt.Sprintf("%.0f%%", 100*done.mean),
					fmt.Sprintf("%.0f%%", 100*valid.mean),
					d0(rounds.mean), d0(msgs.mean),
					d0(summarize(collect(recs, "lost")).mean),
					d0(summarize(collect(recs, "delayed")).mean),
					d0(summarize(collect(recs, "crashed")).mean),
					d0(summarize(collect(recs, "stalls")).mean),
					d0(summarize(collect(recs, "churned")).mean),
					itoa(len(recs)), itoa(failures(recs)))
			}
		}
	}
	for _, unit := range e12OracleUnits {
		for _, n := range e12Sizes(opt) {
			recs := rep.trialsOf("E12", unit, n, e12Trials(opt))
			if len(recs) == 0 {
				continue
			}
			av := summarize(collect(recs, "acceptValid"))
			ai := summarize(collect(recs, "acceptInvalid"))
			t.AddRow(unit, itoa(n),
				"-", fmt.Sprintf("ok:%.0f%% bad:%.0f%%", 100*av.mean, 100*ai.mean),
				"-", "-", "-", "-", "-", "-", "-",
				itoa(len(recs)), itoa(failures(recs)))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("all units of a size share one gnp(4/n) instance; faults draw from the adversary stream of each trial's key (oracle units run under drop=%.2f + stall=%d)", e12OracleBudget.DropProb, e12OracleBudget.StallPerRound),
		"clean is the control arm: stream isolation makes it bit-identical to a fault-free run",
		"done = run finished with every surviving node decided; valid = output passes the global validator on the original graph; every completed-but-invalid output was re-checked by the fault-free distributed checker (a miss fails the record)",
		"oracle rows: ok = faulted checker accepted the valid solution (false-reject rate is 100% minus this); bad = accepted the corrupted one (must be 0% — one-sided oracle)",
		fmt.Sprintf("EN runs with RadiusCap=%d as in E11", e11RadiusCap))
	return t
}
