package sim

import "fmt"

// Scheduler selects the width of the engine that executes a simulation:
// one worker inline on the calling goroutine, or a half-edge-balanced pool
// of Config.Workers. Every width produces identical Results for the same
// Config and seed — including the per-round active-node trajectory — and
// differs only in how the synchronous schedule is realized on the host.
type Scheduler int

const (
	// Sequential is a one-worker pool, run inline: the engine of Run. It is
	// the zero value, so a Config that never mentions schedulers runs on it.
	Sequential Scheduler = iota
	// Parallel is a pool of Config.Workers workers: RunParallel.
	Parallel
)

// String returns the flag-friendly name of the scheduler.
func (s Scheduler) String() string {
	switch s {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// ParseScheduler parses a -scheduler flag value. It accepts the String
// names plus the short aliases "seq" and "par"; "" and "auto" name the zero
// value, Sequential.
func ParseScheduler(name string) (Scheduler, error) {
	switch name {
	case "", "auto", "sequential", "seq":
		return Sequential, nil
	case "parallel", "par":
		return Parallel, nil
	default:
		return Sequential, fmt.Errorf("sim: unknown scheduler %q (want sequential or parallel)", name)
	}
}

// ExecOptions bundles the per-run execution knobs a front end threads through
// an algorithm wrapper's config: which engine, how many workers, whether to
// force the unpacked message planes, which engine pool to draw buffers from,
// whether to record telemetry, and an optional per-round progress hook. The
// zero value runs on one worker with fresh buffers, packed planes where the
// programs allow them, no telemetry and no hook. It is the only way to steer
// a run: sim keeps no package-wide defaults.
type ExecOptions struct {
	Scheduler Scheduler
	Workers   int
	Unpacked  bool
	Telemetry bool
	Pool      *EnginePool
	Progress  func(Progress)
}

// Apply copies the options onto a Config. Zero-valued fields are themselves
// the zero encodings of their Config fields, so a wholesale copy is correct;
// the booleans only ever force a behavior on (they cannot un-set a config
// that already asked for it).
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

// Execute runs the simulation on the engine named by cfg.Scheduler: Run for
// Sequential, RunParallel with cfg.Workers for Parallel. Every algorithm
// wrapper in this repository executes through it, so the Config (filled from
// the caller's ExecOptions) alone decides the engine.
func Execute[T any](cfg Config, factory func(v int) NodeProgram[T]) (*Result[T], error) {
	if cfg.Scheduler == Parallel {
		return RunParallel(cfg, factory, cfg.Workers)
	}
	return Run(cfg, factory)
}
