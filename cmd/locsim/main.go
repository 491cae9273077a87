// Command locsim runs one algorithm on one generated graph and prints its
// quality parameters and engine accounting — the interactive front door to
// the library.
//
// Usage examples:
//
//	locsim -graph gnp -n 1024 -p 0.004 -algo en
//	locsim -graph ring -n 2000 -algo lowrand -h 2
//	locsim -graph grid -n 1024 -algo sharedrand
//	locsim -graph gnp -n 512 -algo luby
//	locsim -graph gnp -n 256 -algo derand-mis
//	locsim -graph gnp -n 100000 -algo luby -scheduler parallel -workers 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"randlocal/internal/check"
	"randlocal/internal/coloring"
	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/mis"
	"randlocal/internal/orientation"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/serve"
	"randlocal/internal/sim"
	"randlocal/internal/slocal"
)

// errRejected makes a checker-rejected (or fault-truncated) run exit nonzero
// so scripts and CI can rely on the exit status, while the INVALID/INCOMPLETE
// diagnostics above it keep carrying the detail.
var errRejected = errors.New("run rejected (INVALID or INCOMPLETE under faults)")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "locsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("locsim", flag.ContinueOnError)
	graphKind := fs.String("graph", "gnp", "graph family: gnp | ring | grid | tree | cliques | regular")
	graphFile := fs.String("graphfile", "", "run on a prebuilt on-disk CSR graph (cmd/csrgen) instead of generating one; overrides -graph/-n/-p/-deg")
	n := fs.Int("n", 512, "number of nodes (grid rounds to a square)")
	p := fs.Float64("p", 0.0, "edge probability for gnp (0 = 4/n)")
	deg := fs.Int("deg", 3, "degree for regular graphs")
	algo := fs.String("algo", "en", "algorithm: en | lowrand | strong37 | sharedrand | shattering | detdecomp | mpx | sinkless | luby | lubybit | coloring | derand-mis | derand-coloring")
	h := fs.Int("h", 2, "bit-holder sparseness for lowrand/strong37")
	seed := fs.Uint64("seed", 1, "random seed")
	scheduler := fs.String("scheduler", "sequential", "simulation engine: sequential | parallel")
	workers := fs.Int("workers", 0, "worker-pool size for -scheduler parallel (0 = GOMAXPROCS, clamped to the node count)")
	telemetry := fs.Bool("telemetry", false, "collect per-round scheduling telemetry and print a summary for the single-simulation algorithms (en, luby, lubybit, coloring); delivery modes are packed (bit planes), dense (plane sweep) and sparse (staged-slot walk)")
	drop := fs.Float64("drop", 0, "adversary: per-message drop probability (en, luby, coloring)")
	delay := fs.Float64("delay", 0, "adversary: per-message delay probability")
	delayMax := fs.Int("delaymax", 2, "adversary: max extra rounds a delayed message is held")
	crash := fs.Int("crash", 0, "adversary: nodes crash-stopped per round")
	churn := fs.Int("churn", 0, "adversary: edges removed per round")
	heal := fs.Int("heal", 0, "adversary: removed edges restored per round")
	stall := fs.Int("stall", 0, "adversary: nodes denied the round by the scheduler, per round")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sched, err := sim.ParseScheduler(*scheduler)
	if err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	sim.SetDefaultScheduler(sched, *workers)
	sim.SetTelemetry(*telemetry)
	if *telemetry {
		defer sim.SetTelemetry(false)
	}

	// The adversary draws from the key's isolated adversary stream, so the
	// same -seed with and without fault flags replays the same algorithm
	// coins (telemetry is forced on for faulted runs, so the injected-event
	// summary always prints).
	advCfg := sim.AdversaryConfig{
		DropProb: *drop, DelayProb: *delay, DelayMax: *delayMax,
		CrashPerRound: *crash, ChurnPerRound: *churn, HealPerRound: *heal,
		StallPerRound: *stall,
	}
	var adv *sim.Adversary
	if !advCfg.Zero() {
		adv, err = sim.NewAdversary(sim.NewSimulationKey(*seed), advCfg)
		if err != nil {
			return err
		}
		switch *algo {
		case "en", "luby", "lubybit", "coloring":
		default:
			return fmt.Errorf("adversary flags apply to -algo en, luby, lubybit or coloring, not %q", *algo)
		}
	}

	// Graph construction is shared with the locsimd daemon (serve.BuildGraph)
	// so a CLI run and a daemon-submitted request of the same parameters
	// solve the same instance. -graphfile swaps the generator for a
	// read-only mapping of a prebuilt CSR file: same *graph.Graph, same
	// deterministic outcomes, graph size bounded by disk instead of RAM.
	var g *graph.Graph
	if *graphFile != "" {
		var closer io.Closer
		g, closer, err = graph.OpenCSRFile(*graphFile)
		if err != nil {
			return err
		}
		defer closer.Close()
	} else {
		g, err = serve.BuildGraph(*graphKind, *n, *p, *deg, *seed)
		if err != nil {
			return err
		}
	}
	fmt.Printf("graph: %v diameter=%d\n", g, graph.Diameter(g))
	if sched == sim.Parallel && *workers > g.N() {
		// The engine clamps a pool wider than the node count (a shard needs
		// at least one node); say so rather than silently running narrower.
		fmt.Printf("note: -workers %d exceeds n=%d; running %d workers\n", *workers, g.N(), g.N())
		sim.SetDefaultScheduler(sched, g.N())
	}

	switch *algo {
	case "en":
		src := randomness.NewFull(*seed)
		d, res, err := decomp.ElkinNeiman(g, src, nil, decomp.ENConfig{Adversary: adv})
		if err != nil {
			if adv == nil || res == nil {
				return err
			}
			printTelemetry(res.Telemetry)
			fmt.Printf("Elkin–Neiman under faults: INCOMPLETE (%v) rounds=%d\n", err, res.Rounds)
			return errRejected
		}
		printTelemetry(res.Telemetry)
		if adv != nil {
			if verr := d.Validate(g, 0, 0); verr != nil {
				fmt.Printf("Elkin–Neiman under faults: INVALID (%v) rounds=%d messages=%d\n", verr, res.Rounds, res.Messages)
				return errRejected
			}
		}
		return reportDecomp(g, d, "Elkin–Neiman",
			fmt.Sprintf("rounds=%d messages=%d maxMsgBits=%d trueBits=%d",
				res.Rounds, res.Messages, res.MaxMessageBits, src.Ledger().TrueBits()))
	case "lowrand", "strong37":
		holders := decomp.GreedyDominatingSet(g, *h)
		bits := 1
		if *algo == "strong37" {
			bits = 48
		}
		src, err := randomness.NewSparse(holders, bits, *seed)
		if err != nil {
			return err
		}
		cfg := decomp.LowRandConfig{H: *h, BitsPerCluster: 64, RulingAlphaFactor: 4}
		if *algo == "lowrand" {
			res, err := decomp.LowRand(g, src, holders, cfg)
			if err != nil {
				return err
			}
			return reportDecomp(g, res.Decomposition, "LowRand (Thm 3.1)",
				fmt.Sprintf("holders=%d bitsGathered=%d preClusters=%d analyticRounds=%d",
					len(holders), res.BitsGathered, res.DistinctPreClusters(), res.AnalyticRounds))
		}
		res, err := decomp.StrongLowRand(g, src, holders, cfg)
		if err != nil {
			return err
		}
		return reportDecomp(g, res.Decomposition, "StrongLowRand (Thm 3.7)",
			fmt.Sprintf("holders=%d bitsGathered=%d phases=%d analyticRounds=%d",
				len(holders), res.BitsGathered, res.Phases, res.AnalyticRounds))
	case "sharedrand":
		shared := randomness.NewShared(300_000, prng.New(*seed))
		res, err := decomp.SharedRand(g, shared, decomp.SharedRandConfig{})
		if err != nil {
			return err
		}
		return reportDecomp(g, res.Decomposition, "SharedRand (Thm 3.6)",
			fmt.Sprintf("seedBitsUsed=%d phases=%d analyticRounds=%d",
				res.SeedBitsUsed, res.Phases, res.AnalyticRounds))
	case "shattering":
		res, err := decomp.Shattering(g, randomness.NewFull(*seed), decomp.ShatteringConfig{ENPhases: 2})
		if err != nil {
			return err
		}
		if err := res.Decomposition.ValidateWeak(g, 0, 0); err != nil {
			return fmt.Errorf("invalid result: %w", err)
		}
		fmt.Printf("Shattering (Thm 4.2): valid (weak-diameter)\n")
		fmt.Printf("  leftover=%d separated=%d ENrounds=%d detClusters=%d analyticRounds=%d\n",
			res.Leftover, res.SeparatedLeftover, res.ENRounds, res.DeterministicClusters, res.AnalyticRounds)
		return nil
	case "detdecomp":
		d := decomp.DeterministicSequential(g)
		return reportDecomp(g, d, "Deterministic sequential (zero randomness)", "SLOCAL locality O(log n)")
	case "mpx":
		res, err := decomp.MPXPartition(g, randomness.NewFull(*seed), nil)
		if err != nil {
			return err
		}
		fmt.Printf("MPX random-shift partition: maxClusterDiameter=%d cutEdges=%d/%d rounds=%d\n",
			res.MaxClusterDiameter, res.CutEdges, g.M(), res.Rounds)
		return nil
	case "sinkless":
		res, err := orientation.Sinkless(g, randomness.NewFull(*seed), 0)
		if err != nil {
			return err
		}
		if err := res.Orientation.Check(3); err != nil {
			return fmt.Errorf("invalid orientation: %w", err)
		}
		fmt.Printf("Sinkless orientation: valid, rounds=%d retries=%d\n", res.Rounds, res.Retries)
		return nil
	case "luby":
		src := randomness.NewFull(*seed)
		in, res, err := mis.Luby(g, src, nil, mis.LubyConfig{Adversary: adv})
		if err != nil {
			if adv == nil || res == nil {
				return err
			}
			printTelemetry(res.Telemetry)
			fmt.Printf("Luby MIS under faults: INCOMPLETE (%v) rounds=%d\n", err, res.Rounds)
			return errRejected
		}
		if err := check.MIS(g, in); err != nil {
			if adv != nil {
				printTelemetry(res.Telemetry)
				fmt.Printf("Luby MIS under faults: INVALID (%v) rounds=%d\n", err, res.Rounds)
				return errRejected
			}
			return fmt.Errorf("invalid MIS: %w", err)
		}
		size := 0
		for _, b := range in {
			if b {
				size++
			}
		}
		printTelemetry(res.Telemetry)
		fmt.Printf("Luby MIS: valid, |MIS|=%d rounds=%d trueBits=%d\n", size, res.Rounds, src.Ledger().TrueBits())
		return nil
	case "lubybit":
		src := randomness.NewFull(*seed)
		in, res, err := mis.LubyBit(g, src, nil, mis.LubyBitConfig{Adversary: adv})
		if err != nil {
			if adv == nil || res == nil {
				return err
			}
			printTelemetry(res.Telemetry)
			fmt.Printf("LubyBit MIS under faults: INCOMPLETE (%v) rounds=%d\n", err, res.Rounds)
			return errRejected
		}
		if err := check.MIS(g, in); err != nil {
			if adv != nil {
				printTelemetry(res.Telemetry)
				fmt.Printf("LubyBit MIS under faults: INVALID (%v) rounds=%d\n", err, res.Rounds)
				return errRejected
			}
			return fmt.Errorf("invalid MIS: %w", err)
		}
		size := 0
		for _, b := range in {
			if b {
				size++
			}
		}
		printTelemetry(res.Telemetry)
		fmt.Printf("LubyBit MIS (1-bit messages): valid, |MIS|=%d rounds=%d messages=%d bits=%d trueBits=%d\n",
			size, res.Rounds, res.Messages, res.BitsTotal, src.Ledger().TrueBits())
		return nil
	case "coloring":
		src := randomness.NewFull(*seed)
		colors, res, err := coloring.Randomized(g, src, nil, coloring.Config{Adversary: adv})
		if err != nil {
			if adv == nil || res == nil {
				return err
			}
			printTelemetry(res.Telemetry)
			fmt.Printf("(Δ+1)-coloring under faults: INCOMPLETE (%v) rounds=%d\n", err, res.Rounds)
			return errRejected
		}
		if err := check.Coloring(g, colors, g.MaxDegree()+1); err != nil {
			if adv != nil {
				printTelemetry(res.Telemetry)
				fmt.Printf("(Δ+1)-coloring under faults: INVALID (%v) rounds=%d\n", err, res.Rounds)
				return errRejected
			}
			return fmt.Errorf("invalid coloring: %w", err)
		}
		printTelemetry(res.Telemetry)
		fmt.Printf("Randomized (Δ+1)-coloring: valid, Δ+1=%d rounds=%d trueBits=%d\n",
			g.MaxDegree()+1, res.Rounds, src.Ledger().TrueBits())
		return nil
	case "derand-mis":
		res, err := slocal.DerandomizedMIS(g)
		if err != nil {
			return err
		}
		if err := check.MIS(g, res.Outputs); err != nil {
			return fmt.Errorf("invalid MIS: %w", err)
		}
		fmt.Printf("Derandomized MIS: valid, zero randomness, analyticRounds=%d (colors=%d, clusterDiam=%d)\n",
			res.AnalyticRounds, res.Colors, res.MaxClusterDiameter)
		return nil
	case "derand-coloring":
		res, err := slocal.DerandomizedColoring(g)
		if err != nil {
			return err
		}
		if err := check.Coloring(g, res.Outputs, g.MaxDegree()+1); err != nil {
			return fmt.Errorf("invalid coloring: %w", err)
		}
		fmt.Printf("Derandomized (Δ+1)-coloring: valid, zero randomness, analyticRounds=%d\n", res.AnalyticRounds)
		return nil
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
}

// printTelemetry summarizes a run's telemetry record when -telemetry
// enabled collection: pool shape, round count, the compute-time imbalance
// across the pool and the delivery-mode split.
func printTelemetry(tel *sim.Telemetry) {
	if tel == nil {
		return
	}
	var computeNS, idleNS, wallNS int64
	packed, dense, sparse := 0, 0, 0
	for _, rs := range tel.Rounds {
		wallNS += rs.WallNS
		var maxC int64
		for _, c := range rs.ComputeNS {
			computeNS += c
			if c > maxC {
				maxC = c
			}
		}
		idleNS += maxC*int64(tel.Workers) - sumInt64(rs.ComputeNS)
		for _, m := range rs.Mode {
			switch m {
			case sim.DeliverPacked:
				packed++
			case sim.DeliverDense:
				dense++
			case sim.DeliverSparse:
				sparse++
			}
		}
	}
	fmt.Printf("telemetry: scheduler=%v workers=%d rounds=%d wall=%.1fms compute=%.1fms barrier-idle=%.1fms\n",
		tel.Scheduler, tel.Workers, len(tel.Rounds),
		float64(wallNS)/1e6, float64(computeNS)/1e6, float64(idleNS)/1e6)
	if packed+dense+sparse > 0 {
		fmt.Printf("telemetry: delivery modes: %d packed / %d dense / %d sparse (per worker-round)\n", packed, dense, sparse)
	}
	if len(tel.Injected) > 0 {
		totals := map[sim.InjectKind]int{}
		for _, ev := range tel.Injected {
			totals[ev.Kind] += ev.Count
		}
		kinds := []sim.InjectKind{sim.InjectDrop, sim.InjectCut, sim.InjectDelay,
			sim.InjectSupersede, sim.InjectExpire, sim.InjectChurnDown,
			sim.InjectChurnUp, sim.InjectCrash, sim.InjectStall, sim.InjectStallLoss}
		line := ""
		for _, k := range kinds {
			if totals[k] > 0 {
				line += fmt.Sprintf(" %v=%d", k, totals[k])
			}
		}
		fmt.Printf("telemetry: injected faults (%d events):%s\n", len(tel.Injected), line)
	}
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func reportDecomp(g *graph.Graph, d *decomp.Decomposition, name, extra string) error {
	if err := d.Validate(g, 0, 0); err != nil {
		return fmt.Errorf("%s produced an invalid decomposition: %w", name, err)
	}
	st := d.StatsOf(g)
	fmt.Printf("%s: valid strong-diameter decomposition\n", name)
	fmt.Printf("  colors=%d clusters=%d maxDiameter=%d maxSize=%d\n", st.Colors, st.Clusters, st.MaxDiameter, st.MaxSize)
	if extra != "" {
		fmt.Printf("  %s\n", extra)
	}
	return nil
}
