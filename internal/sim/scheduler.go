package sim

import (
	"fmt"
	"sync"
)

// Scheduler selects the width of the engine that executes a simulation:
// one worker inline on the calling goroutine, or a half-edge-balanced pool
// of Config.Workers. Every width produces identical Results for the same
// Config and seed — including the per-round active-node trajectory — and
// differs only in how the synchronous schedule is realized on the host.
type Scheduler int

const (
	// Auto defers to the package-wide default (see SetDefaultScheduler);
	// out of the box that is Sequential. It is the zero value, so a Config
	// that never mentions schedulers keeps its historical behavior.
	Auto Scheduler = iota
	// Sequential is a one-worker pool, run inline: the engine of Run.
	Sequential
	// Parallel is a pool of Config.Workers workers: RunParallel.
	Parallel
)

// String returns the flag-friendly name of the scheduler.
func (s Scheduler) String() string {
	switch s {
	case Auto:
		return "auto"
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// ParseScheduler parses a -scheduler flag value. It accepts the String
// names plus the short aliases "seq" and "par".
func ParseScheduler(name string) (Scheduler, error) {
	switch name {
	case "", "auto":
		return Auto, nil
	case "sequential", "seq":
		return Sequential, nil
	case "parallel", "par":
		return Parallel, nil
	default:
		return Auto, fmt.Errorf("sim: unknown scheduler %q (want sequential or parallel)", name)
	}
}

var defaultMu sync.RWMutex
var defaultScheduler = Sequential
var defaultWorkers = 0      // 0 = GOMAXPROCS for the parallel engine
var defaultPool *EnginePool // nil = allocate fresh per run

// SetDefaultScheduler sets the engine used when a Config leaves Scheduler
// as Auto — the lever the command-line front ends use to steer every
// simulation an algorithm wrapper starts internally. Sched Auto resets to
// Sequential. Workers applies to the Parallel engine only; <= 0 means
// runtime.GOMAXPROCS(0).
func SetDefaultScheduler(sched Scheduler, workers int) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if sched == Auto {
		sched = Sequential
	}
	defaultScheduler = sched
	defaultWorkers = workers
}

// DefaultScheduler returns the current package-wide default engine and
// worker count.
func DefaultScheduler() (Scheduler, int) {
	defaultMu.RLock()
	defer defaultMu.RUnlock()
	return defaultScheduler, defaultWorkers
}

// SetDefaultPool sets the EnginePool runs draw their buffer slabs from when a
// Config leaves Pool nil — the lever single-tenant front ends (the
// experiments Runner, locsim) use to warm every simulation they start
// internally. nil restores the historical allocate-fresh behavior. An
// explicit Config.Pool always wins. Multi-tenant hosts (the locsimd daemon)
// should prefer the per-run field so concurrent workloads do not share a
// global mutable default.
func SetDefaultPool(p *EnginePool) {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	defaultPool = p
}

// DefaultPool reports the current package-wide default engine pool (nil when
// unpooled).
func DefaultPool() *EnginePool {
	defaultMu.RLock()
	defer defaultMu.RUnlock()
	return defaultPool
}

// ExecOptions bundles the per-run execution knobs a front end threads through
// an algorithm wrapper's config: which engine, how many workers, whether to
// force the unpacked message planes, which engine pool to draw buffers from,
// whether to record telemetry, and an optional per-round progress hook. The zero value defers every choice to the
// package-wide defaults, exactly as before; multi-tenant hosts set these
// per run instead of mutating the global defaults under their feet.
type ExecOptions struct {
	Scheduler Scheduler
	Workers   int
	Unpacked  bool
	Telemetry bool
	Pool      *EnginePool
	Progress  func(Progress)
}

// Apply copies the options onto a Config. Zero-valued fields are themselves
// the "defer to default" encodings of their Config fields, so a wholesale
// copy is correct; the booleans only ever force a behavior on (they cannot
// un-set a config that already asked for it).
func (o ExecOptions) Apply(cfg *Config) {
	cfg.Scheduler = o.Scheduler
	cfg.Workers = o.Workers
	if o.Unpacked {
		cfg.Unpacked = true
	}
	if o.Telemetry {
		cfg.Telemetry = true
	}
	cfg.Pool = o.Pool
	cfg.Progress = o.Progress
}

// Execute runs the simulation on the engine named by cfg.Scheduler,
// resolving Auto through the package default. Every algorithm wrapper in
// this repository executes through it, so one SetDefaultScheduler call (or
// one Config.Scheduler field) switches the whole stack between the
// one-worker and multi-worker engine.
func Execute[T any](cfg Config, factory func(v int) NodeProgram[T]) (*Result[T], error) {
	sched, workers := cfg.Scheduler, cfg.Workers
	ds, dw := DefaultScheduler()
	if sched == Auto {
		sched = ds
	}
	if workers == 0 {
		workers = dw
	}
	if sched == Parallel {
		return RunParallel(cfg, factory, workers)
	}
	return Run(cfg, factory)
}
