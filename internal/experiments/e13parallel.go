package experiments

import (
	"fmt"

	"randlocal/internal/check"
	"randlocal/internal/graph"
	"randlocal/internal/mis"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// E13 is the multi-core re-shard policy sweep deferred since the parallel
// engine landed: every re-shard policy (adaptive / halving / off) runs the
// *same* Luby instance with the same coins, so the table demonstrates the
// engine's core invariant — Results are byte-identical across re-shard
// policies; policy moves wall clock only — and records which policy
// actually wins on this host.
//
// The wall-clock column reads RunRecord.ElapsedNS, which is measurement
// metadata excluded from checkpoint-resume equality (EqualStable) and from
// the CI smoke diff; the stable Values are the counters the invariant pins
// (rounds, messages, bits, MIS size), identical across all three units by
// construction.

// e13Workers is the configured pool width. Four keeps the sweep meaningful
// on multi-core hosts while the adaptive policy's processor clamp (see
// sim.ReshardAdaptive) collapses it honestly on smaller ones — the
// poolWidth column records the width the engine actually started with.
const e13Workers = 4

// e13Units are the re-shard policies swept, named by their flag values
// (sim.ParseReshardPolicy parses a unit back into its policy).
var e13Units = []string{"adaptive", "halving", "off"}

func e13Sizes(opt Options) []int {
	if opt.Quick {
		return []int{1 << 10}
	}
	return []int{1 << 14, 1 << 16}
}

func e13Trials(opt Options) int {
	if opt.Quick {
		return 1
	}
	return 3
}

var E13 = &Experiment{
	ID:    "E13",
	Title: "Parallel re-shard policies on one Luby instance",
	Claim: "re-shard policy is a wall-clock lever only — rounds/messages/bits are byte-identical across adaptive/halving/off at every size",
	Specs: func(opt Options) []RunSpec {
		var specs []RunSpec
		for _, n := range e13Sizes(opt) {
			for _, unit := range e13Units {
				for t := 0; t < e13Trials(opt); t++ {
					specs = append(specs, RunSpec{Experiment: "E13", Unit: unit, N: n, Trial: t})
				}
			}
		}
		return specs
	},
	Run: func(opt Options, spec RunSpec) *RunRecord {
		rec := newRecord(spec)
		policy, err := sim.ParseReshardPolicy(spec.Unit)
		if err != nil || policy == sim.ReshardAuto {
			return rec.fail("unknown unit " + spec.Unit)
		}
		n := spec.N
		// Shared instance and shared per-trial coins: all three policy units
		// at the same (n, trial) solve the identical problem with the
		// identical randomness, so any divergence in the stable counters
		// would be an engine-equivalence bug, not noise.
		g := graph.GNPConnected(n, 4.0/float64(n), prng.New(spec.sharedSeed(opt.Seed, "instance")))
		coins := spec.sharedSeed(opt.Seed, fmt.Sprintf("coins/trial=%d", spec.Trial))
		in, res, err := mis.Luby(g, randomness.NewFull(coins), nil, mis.LubyConfig{
			Exec: sim.ExecOptions{
				Scheduler: sim.Parallel,
				Workers:   e13Workers,
				Reshard:   policy,
				Telemetry: true,
			},
		})
		if err != nil {
			return rec.fail(err.Error())
		}
		if err := check.MIS(g, in); err != nil {
			return rec.fail(err.Error())
		}
		size := 0
		for _, b := range in {
			if b {
				size++
			}
		}
		rec.set("rounds", float64(res.Rounds))
		rec.set("messages", float64(res.Messages))
		rec.set("bits", float64(res.BitsTotal))
		rec.set("misSize", float64(size))
		if tel := res.Telemetry; tel != nil {
			// The width the engine actually started with: the adaptive
			// policy clamps the configured pool to the host's processor
			// count (collapsing to the sequential engine, one lane and no
			// width record, at width 1), so this is host-dependent but
			// deterministic per host.
			width := tel.Workers
			if len(tel.PoolWidthPerRound) > 0 {
				width = tel.PoolWidthPerRound[0]
			}
			rec.set("poolWidth", float64(width))
		}
		return rec
	},
	Table: func(opt Options, rep *Report) *Table {
		t := tableFor("E13", []string{"reshard", "n", "rounds", "messages", "bits/node", "|MIS|", "width", "wall ms", "identical", "trials", "failures"})
		for _, n := range e13Sizes(opt) {
			// Reference counters from the first unit: the "identical"
			// column checks every other unit against them, trial by trial.
			ref := rep.trialsOf("E13", e13Units[0], n, e13Trials(opt))
			for _, unit := range e13Units {
				recs := rep.trialsOf("E13", unit, n, e13Trials(opt))
				if len(recs) == 0 {
					continue
				}
				r := summarize(collect(recs, "rounds"))
				msgs := summarize(collect(recs, "messages"))
				bits := summarize(collect(recs, "bits"))
				misSize := summarize(collect(recs, "misSize"))
				width := summarize(collect(recs, "poolWidth"))
				var wallNS float64
				for _, rec := range recs {
					wallNS += float64(rec.ElapsedNS)
				}
				wallNS /= float64(len(recs))
				identical := len(recs) == len(ref)
				for i := range recs {
					if identical && i < len(ref) {
						identical = recs[i].val("rounds") == ref[i].val("rounds") &&
							recs[i].val("messages") == ref[i].val("messages") &&
							recs[i].val("bits") == ref[i].val("bits") &&
							recs[i].val("misSize") == ref[i].val("misSize")
					}
				}
				t.AddRow(unit, itoa(n),
					d0(r.mean), d0(msgs.mean), f1(bits.mean/float64(n)), d0(misSize.mean),
					d0(width.mean), f1(wallNS/1e6), yesNo(identical),
					itoa(len(recs)), itoa(failures(recs)))
			}
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("all units run mis.Luby on the same gnp(4/n) instance with the same coins, scheduler=parallel workers=%d", e13Workers),
			"width is the pool the engine started with: the adaptive policy clamps to the host's processor count and collapses to the sequential engine at width 1, so it is host-dependent (recorded, not compared)",
			"wall ms averages RunRecord.ElapsedNS — measurement metadata, excluded from resume/diff stability; the stable columns (rounds/messages/bits/|MIS|) must read identical down every size block")
		return t
	},
}
