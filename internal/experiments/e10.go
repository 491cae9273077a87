package experiments

import (
	"fmt"

	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/orientation"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

var e10SinklessSides = []int{12, 24, 48}

func e10Sides(opt Options) []int {
	if opt.Quick {
		return e10SinklessSides[:2]
	}
	return e10SinklessSides
}

// E10 runs the design-choice ablations: (a) engine equivalence is asserted
// directly by the sim test suites; (b) MPX single-pass partition versus EN's
// gap-rule carving; (c) the ABCP96 re-coloring transform; (d) sinkless
// orientation's round scaling — the Section 1.1 exponential-separation
// example, whose randomized complexity is Θ(log log n) on constant-degree
// graphs (our simple retry variant decays geometrically, measured here).
var E10 = &Experiment{
	ID:    "E10",
	Title: "Ablations: engines, MPX vs EN, re-coloring, sinkless orientation",
	Claim: "design choices behave as the per-theorem probes predict",
	Specs: func(opt Options) []RunSpec {
		specs := []RunSpec{
			{Experiment: "E10", Unit: "mpx", N: 512, Trial: 0},
			{Experiment: "E10", Unit: "en-carving", N: 512, Trial: 0},
			{Experiment: "E10", Unit: "recolor", N: 512, Trial: 0},
		}
		for _, side := range e10Sides(opt) {
			for t := 0; t < trials(opt, 10); t++ {
				specs = append(specs, RunSpec{Experiment: "E10", Unit: fmt.Sprintf("sinkless/%d", side), N: side * side, Trial: t})
			}
		}
		return specs
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		seed := spec.Seed(opt.Seed)
		switch {
		case spec.Unit == "mpx" || spec.Unit == "en-carving" || spec.Unit == "recolor":
			// The three ablation units compare on one shared graph — the
			// point of mpx-vs-en is same-instance round/quality costs.
			g := graph.GNPConnected(spec.N, 4.0/float64(spec.N), prng.New(spec.sharedSeed(opt.Seed, "graph")))
			switch spec.Unit {
			case "mpx":
				res, err := decomp.MPXPartition(g, randomness.NewFull(seed), nil)
				if err != nil {
					return rec.fail(err.Error())
				}
				rec.set("rounds", float64(res.Rounds))
				rec.set("maxDiam", float64(res.MaxClusterDiameter))
				rec.set("cutEdges", float64(res.CutEdges))
				rec.set("edges", float64(g.M()))
			case "en-carving":
				d, enRes, err := decomp.ElkinNeiman(g, randomness.NewFull(seed), nil, decomp.ENConfig{})
				if err != nil {
					return rec.fail(err.Error())
				}
				rec.set("rounds", float64(enRes.Rounds))
				rec.set("colors", float64(d.NumColors()))
				rec.set("maxDiam", float64(d.MaxClusterDiameter(g)))
			case "recolor":
				waste := &decomp.Decomposition{Cluster: make([]int, g.N()), Color: make([]int, g.N())}
				for v := 0; v < g.N(); v++ {
					waste.Cluster[v] = v
					waste.Color[v] = v
				}
				improved, err := decomp.ImproveColors(g, waste)
				if err != nil {
					return rec.fail(err.Error())
				}
				if err := improved.Validate(g, 0, 0); err != nil {
					return rec.fail(err.Error())
				}
				rec.set("colorsBefore", float64(g.N()))
				rec.set("colorsAfter", float64(improved.NumColors()))
				rec.set("maxDiam", float64(improved.MaxClusterDiameter(g)))
			}
			return rec
		default: // sinkless/<side>
			var side int
			fmt.Sscanf(spec.Unit, "sinkless/%d", &side)
			if side == 0 {
				return rec.fail("unknown unit " + spec.Unit)
			}
			torus := graph.Torus(side, side)
			res, err := orientation.Sinkless(torus, randomness.NewFull(seed), 0)
			if err != nil {
				return rec.fail(err.Error())
			}
			if err := res.Orientation.Check(3); err != nil {
				return rec.fail(err.Error())
			}
			rec.set("rounds", float64(res.Rounds))
			rec.set("retries", float64(res.Retries))
			return rec
		}
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E10", []string{"ablation", "setting", "value", "detail"})
		if rec := rep.Get("E10", "mpx", 512, 0); rec != nil && rec.OK {
			t.AddRow("mpx-vs-en", "MPX single pass", fmt.Sprintf("%.0f rounds", rec.val("rounds")),
				fmt.Sprintf("diam=%.0f cutEdges=%.0f/%.0f", rec.val("maxDiam"), rec.val("cutEdges"), rec.val("edges")))
		}
		if rec := rep.Get("E10", "en-carving", 512, 0); rec != nil && rec.OK {
			t.AddRow("mpx-vs-en", "EN full carving", fmt.Sprintf("%.0f rounds", rec.val("rounds")),
				fmt.Sprintf("colors=%.0f diam=%.0f (a full colored decomposition, not just a partition)",
					rec.val("colors"), rec.val("maxDiam")))
		}
		if rec := rep.Get("E10", "recolor", 512, 0); rec != nil && rec.OK {
			t.AddRow("recolor", "singletons → ABCP96", fmt.Sprintf("%.0f → %.0f colors", rec.val("colorsBefore"), rec.val("colorsAfter")),
				fmt.Sprintf("diam=%.0f", rec.val("maxDiam")))
		}
		for _, side := range e10Sides(opt) {
			tr := trials(opt, 10)
			recs := rep.trialsOf("E10", fmt.Sprintf("sinkless/%d", side), side*side, tr)
			r := summarize(collect(recs, "rounds"))
			t.AddRow("sinkless", fmt.Sprintf("torus %dx%d (n=%d)", side, side, side*side),
				fmt.Sprintf("%.1f rounds avg", r.mean),
				fmt.Sprintf("max %d over %d trials; geometric sink decay", int(r.max), tr))
		}
		t.Notes = append(t.Notes,
			"engine-equivalence (sequential ≡ parallel ≡ a test-only reference engine given one seed) is asserted directly by the sim and mis test suites",
			"sinkless orientation is the paper's §1.1 example of an exponential randomized/deterministic separation below O(log n)")
		return t
	},
}
