// Package experiments is the measurement pipeline behind EXPERIMENTS.md.
// The paper is a theory paper with no empirical tables of its own, so each
// experiment operationalizes one quantitative claim: the measured columns
// sit next to the paper's bound so the "shape" of each theorem — who wins,
// what scales like what — is directly visible.
//
// Work is structured as a typed RunSpec → RunRecord pipeline: every
// experiment expands into per-(unit, size, trial) specs, each spec runs to
// a record of named measurements (deterministically — a spec's seed is a
// function of its identity and the master seed alone), and the tables are
// pure aggregations over records. The Runner executes specs on a
// trial-level worker pool, checkpoints each completed record to a JSONL
// journal so interrupted sweeps resume where they stopped, and emits the
// full record set as JSON and CSV next to the rendered text tables.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"randlocal/internal/sim"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks sizes and trial counts for CI-speed runs.
	Quick bool
	// Seed is the master seed; every spec derives its own stream from it
	// (RunSpec.Seed), so records are independent of execution order.
	Seed uint64
	// Scheduler selects the simulation engine every experiment's inner
	// simulations run on (sim.Auto keeps the sequential default); both
	// engines produce identical records for the same seed.
	Scheduler sim.Scheduler
	// Workers is the pool size for the parallel engine; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Pool, when non-nil, is the warm engine-buffer pool every simulation
	// of the sweep draws from (sim.EnginePool): multi-trial sweeps stop
	// re-allocating planes and worklists per trial. Purely a performance
	// lever — records are byte-identical pooled or not.
	Pool *sim.EnginePool
}

// applyScheduler installs the options' engine choice and engine pool as the
// package-wide defaults so the algorithm wrappers the experiments call pick
// them up.
func (o Options) applyScheduler() {
	sim.SetDefaultScheduler(o.Scheduler, o.Workers)
	sim.SetDefaultPool(o.Pool)
}

// Experiment is one measurement: a sweep of specs, a per-spec runner, and a
// table aggregation. Run must be deterministic given the spec (derive all
// randomness from spec.Seed/spec.instanceSeed) and safe to call from
// multiple pool workers at once.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper's claim being exercised
	// Specs expands the experiment into its (unit, size, trial) sweep.
	Specs func(opt Options) []RunSpec
	// Run executes one spec to a record.
	Run func(opt Options, spec RunSpec) *RunRecord
	// Table aggregates the experiment's records (rep.Get / rep.trialsOf)
	// into the rendered table.
	Table func(opt Options, rep *Report) *Table
}

// experimentOrder fixes the presentation (and record-sort) order.
var experimentOrder = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}

// registry is populated by init rather than a var initializer: experiment
// Table closures look their own metadata up through ByID, which would
// otherwise be an initialization cycle.
var registry []*Experiment

func init() {
	registry = []*Experiment{E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12}
}

// Registry returns every experiment in order.
func Registry() []*Experiment { return registry }

// ByID returns the experiment with the given ID ("E3", case-insensitive),
// or nil.
func ByID(id string) *Experiment {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, exp := range Registry() {
		if exp.ID == id {
			return exp
		}
	}
	return nil
}

// IDs lists the experiment identifiers in order.
func IDs() []string { return append([]string(nil), experimentOrder...) }

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being exercised
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned plain text (also valid Markdown when
// pasted into a code block).
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Tables aggregates every experiment of the report into its rendered table,
// in registry order.
func (rep *Report) Tables() []*Table {
	tables := make([]*Table, 0, len(rep.Experiments))
	for _, exp := range rep.Experiments {
		tables = append(tables, exp.Table(rep.Opt, rep))
	}
	return tables
}

// RenderText writes every table as plain text.
func (rep *Report) RenderText(w io.Writer) {
	for _, t := range rep.Tables() {
		t.Render(w)
	}
}

// WriteMarkdown writes the report as EXPERIMENTS.md: a reproduction header,
// then one fenced table per experiment. The first write error is returned —
// a truncated report must not look like success.
func (rep *Report) WriteMarkdown(out io.Writer) error {
	bw := bufio.NewWriter(out)
	w := io.Writer(bw)
	fmt.Fprintf(w, "# EXPERIMENTS\n\n")
	fmt.Fprintf(w, "Measurement tables for the paper's quantitative claims, one experiment\n")
	fmt.Fprintf(w, "per claim, regenerated by the `cmd/experiments` pipeline.\n\n")
	mode := "full scale"
	if rep.Opt.Quick {
		mode = "quick (CI-sized)"
	}
	fmt.Fprintf(w, "- generated by: `go run ./cmd/experiments -seed %d` (%s)\n", rep.Opt.Seed, mode)
	fmt.Fprintf(w, "- scheduler: %s\n", rep.Opt.Scheduler)
	fmt.Fprintf(w, "- records: machine-readable copies of every measurement are emitted as\n")
	fmt.Fprintf(w, "  `records.json` / `records.csv` in the `-out` directory (checked in as\n")
	fmt.Fprintf(w, "  `EXPERIMENTS.json` for this run); sweeps checkpoint per\n")
	fmt.Fprintf(w, "  (experiment, unit, size, trial) and resume after interruption.\n\n")
	for _, t := range rep.Tables() {
		fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title)
		fmt.Fprintf(w, "```\n")
		t.Render(w)
		fmt.Fprintf(w, "```\n\n")
	}
	return bw.Flush()
}

// --- Aggregation helpers ----------------------------------------------------

// stats summarizes a sample.
type stats struct {
	mean, max, min float64
}

func summarize(xs []float64) stats {
	if len(xs) == 0 {
		return stats{}
	}
	s := stats{min: math.Inf(1), max: math.Inf(-1)}
	total := 0.0
	for _, x := range xs {
		total += x
		if x > s.max {
			s.max = x
		}
		if x < s.min {
			s.min = x
		}
	}
	s.mean = total / float64(len(xs))
	return s
}

// collect pulls one named value out of the OK records in recs.
func collect(recs []*RunRecord, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.OK {
			out = append(out, r.val(name))
		}
	}
	return out
}

// failures counts the non-OK records.
func failures(recs []*RunRecord) int {
	n := 0
	for _, r := range recs {
		if !r.OK {
			n++
		}
	}
	return n
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func d0(x float64) string { return fmt.Sprintf("%.0f", x) }
func itoa(x int) string   { return fmt.Sprintf("%d", x) }
func i64(x int64) string  { return fmt.Sprintf("%d", x) }
func lg2(n int) float64   { return math.Log2(float64(n)) }
func ratio(x float64, n int) string {
	return fmt.Sprintf("%.2f", x/lg2(n))
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
