package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// checkpointFile is the append-only JSONL journal inside an output
// directory: a header line identifying the run's options, then one
// RunRecord per completed spec. Records are appended as they complete, so
// an interrupted sweep — a crash, a kill, a -limit stop — resumes from
// exactly the trials it finished.
const checkpointFile = "checkpoint.jsonl"

// recordsJSONFile and recordsCSVFile are the machine-readable emissions
// written next to the text tables once a run completes.
const (
	recordsJSONFile = "records.json"
	recordsCSVFile  = "records.csv"
)

// checkpointHeader is the journal's first line; resuming with different
// options would silently mix incompatible records, so a mismatch aborts.
type checkpointHeader struct {
	Schema int    `json:"schema"`
	Seed   uint64 `json:"seed"`
	Quick  bool   `json:"quick"`
}

// Runner executes experiment sweeps as a RunSpec → RunRecord pipeline:
// specs are expanded per experiment, already-checkpointed specs are skipped,
// and the remainder runs on a trial-level worker pool. Every completed
// record is appended to the checkpoint journal immediately, so progress
// survives interruption at (experiment, unit, size, trial) granularity.
type Runner struct {
	// Opt is the experiment options (scale, master seed, engine choice).
	Opt Options
	// OutDir is the checkpoint/emission directory; "" runs fully in
	// memory (no resume, no JSON/CSV).
	OutDir string
	// Jobs is the worker-pool width for independent trials; <= 0 means
	// GOMAXPROCS. Trials are independent by construction (each spec owns
	// its seed), but note each trial may itself start simulations on the
	// engine Opt.Exec selects.
	Jobs int
	// Limit, when positive, stops the run after that many *new* records —
	// the controlled-interruption hook the CI smoke job uses to exercise
	// the resume path deterministically. The checkpoint stays valid; a
	// later run with the same OutDir picks up the rest.
	Limit int
	// Log receives progress lines; nil is silent.
	Log io.Writer
}

// Report is the outcome of one Runner.Run: every record (resumed and fresh)
// keyed by spec, plus completion metadata.
type Report struct {
	Opt         Options
	Experiments []*Experiment
	records     map[string]*RunRecord
	// Resumed counts records loaded from the checkpoint, Ran records
	// executed by this process; LimitHit reports an early -limit stop.
	Resumed  int
	Ran      int
	LimitHit bool
}

// Get returns the record of one spec, or nil when it has not run (possible
// only after a Limit stop).
func (rep *Report) Get(id, unit string, n, trial int) *RunRecord {
	return rep.records[RunSpec{Experiment: id, Unit: unit, N: n, Trial: trial}.Key()]
}

// trialsOf collects the records of consecutive trials 0..count-1, skipping
// gaps.
func (rep *Report) trialsOf(id, unit string, n, count int) []*RunRecord {
	var out []*RunRecord
	for t := 0; t < count; t++ {
		if rec := rep.Get(id, unit, n, t); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// RecordSet assembles the report's records, sorted for stable emission.
func (rep *Report) RecordSet() *RecordSet {
	recs := make([]*RunRecord, 0, len(rep.records))
	for _, r := range rep.records {
		recs = append(recs, r)
	}
	sortRecords(recs)
	return &RecordSet{Schema: RecordSchema, Seed: rep.Opt.Seed, Quick: rep.Opt.Quick, Records: recs}
}

// Complete reports whether every spec of every experiment has a record.
func (rep *Report) Complete() bool {
	for _, exp := range rep.Experiments {
		for _, spec := range exp.Specs(rep.Opt) {
			if rep.records[spec.Key()] == nil {
				return false
			}
		}
	}
	return true
}

// Run executes the given experiments. It returns the report together with
// any I/O error; trial-level failures never abort the sweep — they land in
// their records' OK/Err fields and surface in the tables.
func (r *Runner) Run(exps []*Experiment) (*Report, error) {
	rep := &Report{Opt: r.Opt, Experiments: exps, records: map[string]*RunRecord{}}

	// Expand the sweep and index spec ownership.
	type job struct {
		spec RunSpec
		exp  *Experiment
	}
	var jobs []job
	for _, exp := range exps {
		for _, spec := range exp.Specs(r.Opt) {
			if spec.Experiment != exp.ID {
				return nil, fmt.Errorf("experiments: %s produced spec %s", exp.ID, spec.Key())
			}
			jobs = append(jobs, job{spec, exp})
		}
	}

	// Resume from the checkpoint journal, then open it for appending.
	var ckpt *os.File
	if r.OutDir != "" {
		if err := os.MkdirAll(r.OutDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(r.OutDir, checkpointFile)
		loaded, err := loadCheckpoint(path, r.Opt)
		if err != nil {
			return nil, err
		}
		for k, rec := range loaded {
			rep.records[k] = rec
		}
		rep.Resumed = len(loaded)
		ckpt, err = openCheckpoint(path, r.Opt, len(loaded) > 0)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
	}

	// What still needs to run, in sweep order.
	var todo []job
	for _, j := range jobs {
		if rep.records[j.spec.Key()] == nil {
			todo = append(todo, j)
		}
	}
	if r.Limit > 0 && len(todo) > r.Limit {
		todo = todo[:r.Limit]
		rep.LimitHit = true
	}
	r.logf("experiments: %d specs total, %d resumed, %d to run", len(jobs), rep.Resumed, len(todo))

	// The trial pool (shared machinery with the locsimd daemon, see
	// pool.go). Each worker runs specs to records; the collector owns the
	// report map and the checkpoint file.
	workers := r.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	var mu sync.Mutex
	var ioErr error
	if workers > 1 {
		pool := NewTrialPool(workers, 0)
		var wg sync.WaitGroup
		for _, j := range todo {
			wg.Add(1)
			if err := pool.Submit(func() {
				defer wg.Done()
				rec := runSpec(r.Opt, j)
				mu.Lock()
				r.collect(rep, ckpt, rec, &ioErr)
				mu.Unlock()
			}); err != nil {
				// Unreachable — the Runner owns this pool and never closes it
				// mid-sweep — but never leak the WaitGroup slot.
				wg.Done()
			}
		}
		wg.Wait()
		pool.Close()
	} else {
		for _, j := range todo {
			rec := runSpec(r.Opt, j)
			r.collect(rep, ckpt, rec, &ioErr)
		}
	}
	if ioErr != nil {
		return rep, ioErr
	}

	// Emit the machine-readable outputs only for complete runs: a partial
	// records.json would look exactly like a finished sweep.
	if r.OutDir != "" && !rep.LimitHit && rep.Complete() {
		if err := rep.WriteOutputs(r.OutDir); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// runSpec executes one spec, timing it.
func runSpec(opt Options, j struct {
	spec RunSpec
	exp  *Experiment
}) *RunRecord {
	start := time.Now()
	rec := j.exp.Run(opt, j.spec)
	if rec == nil {
		rec = newRecord(j.spec).fail("experiment returned no record")
	}
	rec.ElapsedNS = time.Since(start).Nanoseconds()
	return rec
}

// collect files one fresh record: into the report, onto the journal.
// Callers serialize access.
func (r *Runner) collect(rep *Report, ckpt *os.File, rec *RunRecord, ioErr *error) {
	rep.records[rec.Spec.Key()] = rec
	rep.Ran++
	if ckpt != nil && *ioErr == nil {
		if err := appendRecord(ckpt, rec); err != nil {
			*ioErr = err
		}
	}
	if d := time.Duration(rec.ElapsedNS); d >= time.Second {
		r.logf("experiments: %s done in %v", rec.Spec.Key(), d.Round(time.Millisecond))
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// WriteOutputs writes records.json and records.csv into dir.
func (rep *Report) WriteOutputs(dir string) error {
	rs := rep.RecordSet()
	jf, err := os.Create(filepath.Join(dir, recordsJSONFile))
	if err != nil {
		return err
	}
	if err := rs.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, recordsCSVFile))
	if err != nil {
		return err
	}
	if err := rs.WriteCSV(cf); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}

// loadCheckpoint reads a journal, returning the valid records keyed by
// spec. A missing file means a fresh run. The final line of a killed run
// may be torn; any line that does not parse or validate is skipped — its
// spec simply re-runs.
func loadCheckpoint(path string, opt Options) (map[string]*RunRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, sc.Err() // empty journal: treat as fresh
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("experiments: %s: unreadable header: %w", path, err)
	}
	if hdr.Schema != RecordSchema || hdr.Seed != opt.Seed || hdr.Quick != opt.Quick {
		return nil, fmt.Errorf("experiments: %s was checkpointed with schema=%d seed=%d quick=%v; rerun with matching options or a fresh -out directory",
			path, hdr.Schema, hdr.Seed, hdr.Quick)
	}
	out := map[string]*RunRecord{}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn or corrupt line: re-run its spec
		}
		if rec.Validate() != nil {
			continue
		}
		out[rec.Spec.Key()] = &rec
	}
	return out, sc.Err()
}

// openCheckpoint opens the journal for appending, writing the header first
// on a fresh file. A journal whose last line was torn by a mid-write kill
// is terminated with a newline first, so the next append starts a fresh
// line instead of merging into (and corrupting) the torn record.
func openCheckpoint(path string, opt Options, resumed bool) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	switch {
	case st.Size() == 0 && !resumed:
		hdr, _ := json.Marshal(checkpointHeader{Schema: RecordSchema, Seed: opt.Seed, Quick: opt.Quick})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, err
		}
	case st.Size() > 0:
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err != nil {
			f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return f, nil
}

// appendRecord journals one completed record.
func appendRecord(f *os.File, rec *RunRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return err
}
