// Command locsim runs one algorithm on one generated graph (or a csrgen
// graph file) and prints its quality parameters and engine accounting — the
// interactive front door to the library. The single-simulation algorithms
// (en, luby, lubybit, coloring) run through serve.Run, the locsimd daemon's
// execution path, so the CLI and the daemon print the same run, checker
// verdict and telemetry. The graph line carries the exact diameter up to
// 2^12 nodes and a double-sweep lower bound (diameter>=) above.
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
	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/orientation"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/serve"
	"randlocal/internal/sim"
	"randlocal/internal/slocal"
)

// errRejected makes a checker-rejected (or fault-truncated) run exit nonzero
// so scripts and CI can rely on the exit status, while the INVALID/INCOMPLETE
// summary line above it keeps carrying the detail.
var errRejected = errors.New("run rejected (INVALID or INCOMPLETE under faults)")

// exactDiameterMaxN is the largest graph whose exact diameter locsim prints.
// graph.Diameter usually needs a handful of BFS passes, but one per node in
// the worst case (a ring), O(n·m). Larger graphs get a double-sweep lower
// bound, so the printed line for a given graph never changes form.
const exactDiameterMaxN = 1 << 12

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "locsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
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
	var adv serve.AdversaryKnobs
	fs.Float64Var(&adv.Drop, "drop", 0, "adversary: per-message drop probability (en, luby, lubybit, coloring)")
	fs.Float64Var(&adv.Delay, "delay", 0, "adversary: per-message delay probability")
	fs.IntVar(&adv.DelayMax, "delaymax", 2, "adversary: max extra rounds a delayed message is held")
	fs.IntVar(&adv.Crash, "crash", 0, "adversary: nodes crash-stopped per round")
	fs.IntVar(&adv.Churn, "churn", 0, "adversary: edges removed per round")
	fs.IntVar(&adv.Heal, "heal", 0, "adversary: removed edges restored per round")
	fs.IntVar(&adv.Stall, "stall", 0, "adversary: nodes denied the round by the scheduler, per round")
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
	// Every simulation this run starts executes on these options.
	exec := sim.ExecOptions{Scheduler: sched, Workers: *workers, Telemetry: *telemetry}
	single := *algo == "en" || *algo == "luby" || *algo == "lubybit" || *algo == "coloring"
	if !adv.Zero() && !single {
		return fmt.Errorf("adversary flags apply to -algo en, luby, lubybit or coloring, not %q", *algo)
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
	fmt.Fprintf(w, "graph: %v %s\n", g, diameter(g))
	if sched == sim.Parallel && *workers > g.N() {
		// The engine clamps a pool wider than the node count (a shard needs
		// at least one node); say so rather than silently running narrower.
		fmt.Fprintf(w, "note: -workers %d exceeds n=%d; running %d workers\n", *workers, g.N(), g.N())
	}

	if single {
		// The daemon's execution path: same run, checker and one-sided
		// INVALID/INCOMPLETE verdict for faulted runs, whose adversary draws
		// from the seed's isolated adversary stream (the same -seed with and
		// without fault flags replays the same algorithm coins).
		out, err := serve.Run(g, serve.RunRequest{
			Algo: *algo, Seed: *seed, Scheduler: *scheduler, Workers: *workers, Adversary: adv,
		}, sim.ExecOptions{Telemetry: *telemetry})
		if err != nil {
			return err
		}
		fmt.Fprint(w, out.Telemetry)
		fmt.Fprintf(w, "%s rounds=%d messages=%d bits=%d maxMsgBits=%d\n",
			out.Summary, out.Rounds, out.Messages, out.BitsTotal, out.MaxMessageBits)
		if !out.Valid {
			return errRejected
		}
		return nil
	}

	switch *algo {
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
			return reportDecomp(w, g, res.Decomposition, "LowRand (Thm 3.1)",
				fmt.Sprintf("holders=%d bitsGathered=%d preClusters=%d analyticRounds=%d",
					len(holders), res.BitsGathered, res.DistinctPreClusters(), res.AnalyticRounds))
		}
		res, err := decomp.StrongLowRand(g, src, holders, cfg)
		if err != nil {
			return err
		}
		return reportDecomp(w, g, res.Decomposition, "StrongLowRand (Thm 3.7)",
			fmt.Sprintf("holders=%d bitsGathered=%d phases=%d analyticRounds=%d",
				len(holders), res.BitsGathered, res.Phases, res.AnalyticRounds))
	case "sharedrand":
		shared := randomness.NewShared(300_000, prng.New(*seed))
		res, err := decomp.SharedRand(g, shared, decomp.SharedRandConfig{})
		if err != nil {
			return err
		}
		return reportDecomp(w, g, res.Decomposition, "SharedRand (Thm 3.6)",
			fmt.Sprintf("seedBitsUsed=%d phases=%d analyticRounds=%d",
				res.SeedBitsUsed, res.Phases, res.AnalyticRounds))
	case "shattering":
		res, err := decomp.Shattering(g, randomness.NewFull(*seed), decomp.ShatteringConfig{ENPhases: 2, Exec: exec})
		if err != nil {
			return err
		}
		if err := res.Decomposition.ValidateWeak(g, 0, 0); err != nil {
			return fmt.Errorf("invalid result: %w", err)
		}
		fmt.Fprintf(w, "Shattering (Thm 4.2): valid (weak-diameter)\n")
		fmt.Fprintf(w, "  leftover=%d separated=%d ENrounds=%d detClusters=%d analyticRounds=%d\n",
			res.Leftover, res.SeparatedLeftover, res.ENRounds, res.DeterministicClusters, res.AnalyticRounds)
		return nil
	case "detdecomp":
		d := decomp.DeterministicSequential(g)
		return reportDecomp(w, g, d, "Deterministic sequential (zero randomness)", "SLOCAL locality O(log n)")
	case "mpx":
		res, err := decomp.MPXPartition(g, randomness.NewFull(*seed), nil, exec)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "MPX random-shift partition: maxClusterDiameter=%d cutEdges=%d/%d rounds=%d\n",
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
		fmt.Fprintf(w, "Sinkless orientation: valid, rounds=%d retries=%d\n", res.Rounds, res.Retries)
		return nil
	case "derand-mis":
		res, err := slocal.DerandomizedMIS(g)
		if err != nil {
			return err
		}
		if err := check.MIS(g, res.Outputs); err != nil {
			return fmt.Errorf("invalid MIS: %w", err)
		}
		fmt.Fprintf(w, "Derandomized MIS: valid, zero randomness, analyticRounds=%d (colors=%d, clusterDiam=%d)\n",
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
		fmt.Fprintf(w, "Derandomized (Δ+1)-coloring: valid, zero randomness, analyticRounds=%d\n", res.AnalyticRounds)
		return nil
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
}

func reportDecomp(w io.Writer, g *graph.Graph, d *decomp.Decomposition, name, extra string) error {
	if err := d.Validate(g, 0, 0); err != nil {
		return fmt.Errorf("%s produced an invalid decomposition: %w", name, err)
	}
	st := d.StatsOf(g)
	fmt.Fprintf(w, "%s: valid strong-diameter decomposition\n", name)
	fmt.Fprintf(w, "  colors=%d clusters=%d maxDiameter=%d maxSize=%d\n", st.Colors, st.Clusters, st.MaxDiameter, st.MaxSize)
	if extra != "" {
		fmt.Fprintf(w, "  %s\n", extra)
	}
	return nil
}

// diameter prints the graph's exact diameter up to exactDiameterMaxN nodes.
// Above that it prints the double-sweep lower bound: the eccentricity of a
// node farthest from node 0.
func diameter(g *graph.Graph) string {
	if g.N() <= exactDiameterMaxN {
		return fmt.Sprintf("diameter=%d", graph.Diameter(g))
	}
	dist, far := g.BFS(0), 0
	for v, d := range dist {
		if d > dist[far] {
			far = v
		}
	}
	return fmt.Sprintf("diameter>=%d", g.Eccentricity(far))
}
