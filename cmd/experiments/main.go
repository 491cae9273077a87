// Command experiments runs the measurement pipeline behind EXPERIMENTS.md:
// one experiment per quantitative claim of the paper (the paper itself has
// no empirical tables — the experiments operationalize its theorems), each
// expanded into per-(unit, size, trial) specs that run on a trial-level
// worker pool, checkpoint to a JSONL journal, and emit machine-readable
// records (JSON + CSV) next to the rendered text tables.
//
// Usage:
//
//	experiments                          # run everything at full scale, tables to stdout
//	experiments -quick                   # CI-sized run
//	experiments -experiment E3,E11       # a subset of experiments
//	experiments -list                    # list experiment IDs
//	experiments -out runs/full           # checkpoint + records.json/.csv; rerun to resume
//	experiments -out runs/full -md EXPERIMENTS.md  # also write the markdown report
//	experiments -out runs/x -limit 5     # stop after 5 new records (exercises resume)
//	experiments -validate runs/full      # schema-check an emitted records.json
//	experiments -diff a.json b.json      # compare two record sets (stable fields)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"randlocal/internal/experiments"
	"randlocal/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run smaller, faster versions of every experiment")
	seed := fs.Uint64("seed", 2019, "master seed (2019 reproduces EXPERIMENTS.md)")
	exp := fs.String("experiment", "", "comma-separated experiment IDs to run (E1..E12; empty = all)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	scheduler := fs.String("scheduler", "sequential", "simulation engine: sequential | parallel")
	workers := fs.Int("workers", 0, "worker-pool size for -scheduler parallel (0 = GOMAXPROCS)")
	outDir := fs.String("out", "", "checkpoint/emission directory (enables resume + records.json/.csv)")
	jobs := fs.Int("jobs", 0, "trial-level worker pool size (0 = GOMAXPROCS)")
	limit := fs.Int("limit", 0, "stop after this many new records (0 = no limit; checkpoint stays resumable)")
	md := fs.String("md", "", "write the markdown report (EXPERIMENTS.md format) to this file")
	validate := fs.String("validate", "", "validate the records.json in this directory (or a records.json path) and exit")
	diff := fs.Bool("diff", false, "compare two records.json files by stable fields: -diff a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if *validate != "" {
		return validateRecords(*validate)
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two records.json paths")
		}
		return diffRecords(fs.Arg(0), fs.Arg(1))
	}

	if *limit > 0 && *outDir == "" {
		return fmt.Errorf("-limit stops a run early so it can be resumed, which needs a checkpoint: pass -out too")
	}
	sched, err := sim.ParseScheduler(*scheduler)
	if err != nil {
		return err
	}

	exps, err := selectExperiments(*exp)
	if err != nil {
		return err
	}
	runner := &experiments.Runner{
		Opt:    experiments.Options{Quick: *quick, Seed: *seed, Exec: sim.ExecOptions{Scheduler: sched, Workers: *workers}},
		OutDir: *outDir,
		Jobs:   *jobs,
		Limit:  *limit,
		Log:    os.Stderr,
	}
	rep, err := runner.Run(exps)
	if err != nil {
		return err
	}
	if rep.LimitHit {
		fmt.Fprintf(os.Stderr, "experiments: stopped at -limit after %d new records (%d checkpointed total); rerun with the same -out to resume\n",
			rep.Ran, rep.Ran+rep.Resumed)
		return nil
	}
	if *md != "" {
		f, err := os.Create(*md)
		if err != nil {
			return err
		}
		if err := rep.WriteMarkdown(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", *md, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", *md)
	} else {
		rep.RenderText(os.Stdout)
	}
	if *outDir != "" {
		fmt.Fprintf(os.Stderr, "experiments: records in %s (records.json, records.csv, checkpoint.jsonl)\n", *outDir)
	}
	return nil
}

// selectExperiments resolves a comma-separated ID list ("" = all).
func selectExperiments(ids string) ([]*experiments.Experiment, error) {
	if strings.TrimSpace(ids) == "" {
		return experiments.Registry(), nil
	}
	var out []*experiments.Experiment
	seen := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		exp := experiments.ByID(id)
		if exp == nil {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		if seen[exp.ID] {
			continue // a repeated ID must not run (and journal) its specs twice
		}
		seen[exp.ID] = true
		out = append(out, exp)
	}
	return out, nil
}

// validateRecords schema-checks a records.json (given directly or inside a
// directory).
func validateRecords(path string) error {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "records.json")
	}
	rs, err := experiments.LoadRecordSet(path)
	if err != nil {
		return err
	}
	if err := rs.Validate(); err != nil {
		return err
	}
	fmt.Printf("%s: %d records, schema %d, seed %d, quick=%v — OK\n",
		path, len(rs.Records), experiments.RecordSchema, rs.Seed, rs.Quick)
	return nil
}

// diffRecords compares two record sets by their stable fields (spec,
// outcome, measurements — not wall time), the checkpoint-resume round-trip
// check.
func diffRecords(a, b string) error {
	ra, err := experiments.LoadRecordSet(a)
	if err != nil {
		return err
	}
	rb, err := experiments.LoadRecordSet(b)
	if err != nil {
		return err
	}
	diffs, err := experiments.DiffStable(ra, rb)
	if err != nil {
		return err
	}
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, d)
		}
		return fmt.Errorf("%d records differ", len(diffs))
	}
	fmt.Printf("%s and %s agree on all %d records (stable fields)\n", a, b, len(ra.Records))
	return nil
}
