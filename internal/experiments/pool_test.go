package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"

	"randlocal/internal/check"
	"randlocal/internal/graph"
	"randlocal/internal/mis"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

func TestTrialPoolRunsEverything(t *testing.T) {
	pool := NewTrialPool(3, 2)
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		if err := pool.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	pool.Close()
	if got := ran.Load(); got != 50 {
		t.Fatalf("ran %d tasks, want 50", got)
	}
	if err := pool.Submit(func() {}); err != ErrPoolClosed {
		t.Fatalf("Submit after Close: %v, want ErrPoolClosed", err)
	}
	if err := pool.TrySubmit(func() {}); err != ErrPoolClosed {
		t.Fatalf("TrySubmit after Close: %v, want ErrPoolClosed", err)
	}
	pool.Close() // idempotent
}

func TestTrialPoolTrySubmitBounded(t *testing.T) {
	pool := NewTrialPool(1, 1)
	gate := make(chan struct{})
	var ran atomic.Int64
	blocked := func() { <-gate; ran.Add(1) }
	// First task occupies the single worker; second fills the backlog; the
	// third must bounce instead of blocking.
	if err := pool.TrySubmit(blocked); err != nil {
		t.Fatal(err)
	}
	// The worker may not have picked the first task up yet; feed the backlog
	// until it reports full, which must happen within two acceptances.
	accepted := 1
	for ; accepted < 4; accepted++ {
		if err := pool.TrySubmit(blocked); err == ErrPoolBusy {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if accepted > 2 {
		t.Fatalf("backlog of 1 accepted %d pending tasks", accepted)
	}
	close(gate)
	pool.Close()
	if got := ran.Load(); got != int64(accepted) {
		t.Fatalf("ran %d, want %d (drain must run accepted tasks)", got, accepted)
	}
}

// poolBenchExperiment is a synthetic sweep for the pooled-Runner tests and
// benchmark: each trial builds a GNP instance from the spec's instance seed
// and solves MIS with Luby — the same shape every real experiment has.
func poolBenchExperiment(n, trials int) *Experiment {
	return &Experiment{
		ID:    "EP",
		Title: "pooled-runner probe",
		Specs: func(opt Options) []RunSpec {
			specs := make([]RunSpec, trials)
			for t := range specs {
				specs[t] = RunSpec{Experiment: "EP", Unit: "Luby", N: n, Trial: t}
			}
			return specs
		},
		Run: func(opt Options, spec RunSpec) *RunRecord {
			rec := newRecord(spec)
			g := graph.GNPConnected(spec.N, 4.0/float64(spec.N), prng.New(spec.instanceSeed(opt.Seed)))
			in, res, err := mis.Luby(g, randomness.NewFull(spec.Seed(opt.Seed)), nil, mis.LubyConfig{Exec: opt.Exec})
			if err != nil {
				return rec.fail(err.Error())
			}
			if err := check.MIS(g, in); err != nil {
				return rec.fail(err.Error())
			}
			rec.set("rounds", float64(res.Rounds))
			rec.set("messages", float64(res.Messages))
			rec.set("bits", float64(res.BitsTotal))
			return rec
		},
	}
}

// TestRunnerPooledRecordsIdentical proves Options.Exec.Pool is purely a
// performance lever: the same sweep with and without a warm engine pool
// produces identical measurements in every record.
func TestRunnerPooledRecordsIdentical(t *testing.T) {
	const n, trials = 220, 4
	exp := poolBenchExperiment(n, trials)
	run := func(pool *sim.EnginePool) *Report {
		t.Helper()
		r := &Runner{Opt: Options{Seed: 2026, Exec: sim.ExecOptions{Pool: pool}}, Jobs: 2}
		rep, err := r.Run([]*Experiment{exp})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := run(nil)
	warm := run(sim.NewEnginePool())
	for trial := 0; trial < trials; trial++ {
		want := cold.Get("EP", "Luby", n, trial)
		got := warm.Get("EP", "Luby", n, trial)
		if want == nil || got == nil {
			t.Fatalf("trial %d: missing record (cold=%v warm=%v)", trial, want != nil, got != nil)
		}
		if want.OK != got.OK || fmt.Sprint(want.Values) != fmt.Sprint(got.Values) {
			t.Errorf("trial %d: pooled record diverged:\ncold: ok=%v %v\nwarm: ok=%v %v",
				trial, want.OK, want.Values, got.OK, got.Values)
		}
	}
}

// BenchmarkRunnerPooled measures the Runner win the engine pool buys on a
// multi-trial sweep: same specs, same records, cold vs warm buffers.
func BenchmarkRunnerPooled(b *testing.B) {
	exp := poolBenchExperiment(4096, 8)
	bench := func(b *testing.B, pool *sim.EnginePool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := &Runner{Opt: Options{Seed: 2026, Exec: sim.ExecOptions{Pool: pool}}, Jobs: 2}
			if _, err := r.Run([]*Experiment{exp}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { bench(b, nil) })
	b.Run("warm", func(b *testing.B) {
		pool := sim.NewEnginePool()
		bench(b, pool)
	})
}
