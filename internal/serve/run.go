// Package serve is the simulation service layer behind cmd/locsimd: typed
// run requests carrying the same knobs as the locsim CLI, deterministic
// execution of the single-simulation algorithms over warm pooled engines,
// and an HTTP/JSON front end with live round-by-round progress streaming.
// C-POD's remote shared-testbed framing (PAPERS.md) is the model: many
// tenants submit runs to one long-lived process that keeps its engine
// buffers warm across them.
package serve

import (
	"fmt"
	"io"

	"randlocal/internal/check"
	"randlocal/internal/coloring"
	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/mis"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// MaxN bounds accepted run sizes: large enough for the 2^22 experiment
// scale, small enough that a single request cannot exhaust the host.
const MaxN = 1 << 22

// AdversaryKnobs are the fault-injection budgets of a run request, mirroring
// the locsim -drop/-delay/-crash/-churn/-stall flags.
type AdversaryKnobs struct {
	Drop     float64 `json:"drop,omitempty"`
	Delay    float64 `json:"delay,omitempty"`
	DelayMax int     `json:"delayMax,omitempty"`
	Crash    int     `json:"crash,omitempty"`
	Churn    int     `json:"churn,omitempty"`
	Heal     int     `json:"heal,omitempty"`
	Stall    int     `json:"stall,omitempty"`
}

// Zero reports an all-defaults knob set (no adversary attached).
func (k AdversaryKnobs) Zero() bool {
	return k.Drop == 0 && k.Delay == 0 && k.Crash == 0 && k.Churn == 0 && k.Heal == 0 && k.Stall == 0
}

// adversary builds the run's adversary from the knobs — nil for an
// all-defaults set. It is the one place the knobs become a
// sim.AdversaryConfig, so request validation applies exactly sim's rules.
func (k AdversaryKnobs) adversary(seed uint64) (*sim.Adversary, error) {
	adv, err := sim.NewAdversary(sim.NewSimulationKey(seed), sim.AdversaryConfig{
		DropProb: k.Drop, DelayProb: k.Delay, DelayMax: k.DelayMax,
		CrashPerRound: k.Crash, ChurnPerRound: k.Churn, HealPerRound: k.Heal,
		StallPerRound: k.Stall,
	})
	if err != nil || k.Zero() {
		return nil, err
	}
	return adv, nil
}

// RunRequest is one submitted simulation: the same algorithm, graph-family,
// seed, engine and adversary knobs the locsim CLI accepts, as JSON. Zero
// values mean the CLI's defaults, so {"algo":"luby","n":512,"seed":1}
// reproduces `locsim -algo luby -n 512 -seed 1` exactly.
type RunRequest struct {
	// Algo is the algorithm: en | luby | lubybit | coloring — the
	// single-simulation algorithms whose runs a multi-tenant service can
	// account and stream round by round.
	Algo string `json:"algo"`
	// Graph is the family: gnp | ring | grid | tree | cliques | regular
	// ("" = gnp). N, P and Deg parameterize it as in the CLI: P 0 means
	// 4/n for gnp, Deg 0 means 3 for regular, grid rounds to a square.
	Graph string  `json:"graph,omitempty"`
	N     int     `json:"n"`
	P     float64 `json:"p,omitempty"`
	Deg   int     `json:"deg,omitempty"`
	// GraphFile, when set, runs on a prebuilt on-disk CSR graph (cmd/csrgen)
	// instead of a generated family: Graph/P/Deg must be unset and N may be
	// 0 (it is filled from the file's header) or must match it. Over HTTP
	// the path is resolved inside the daemon's -graphdir sandbox; direct
	// Execute callers and the locsim CLI pass any path.
	GraphFile string `json:"graphFile,omitempty"`
	// Seed drives everything: graph construction, the algorithm's coins,
	// and (through the derived SimulationKey) the adversary's. The same
	// request is byte-deterministic across processes.
	Seed uint64 `json:"seed"`
	// Scheduler ("" = sequential), Workers and Unpacked select the engine
	// exactly as the CLI flags do. Workers above N is clamped to N (a shard
	// needs a node).
	Scheduler string `json:"scheduler,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	Unpacked  bool   `json:"unpacked,omitempty"`
	// Adversary attaches fault budgets; the zero value runs fault-free.
	Adversary AdversaryKnobs `json:"adversary,omitempty"`
}

// Validate normalizes defaults in place and rejects requests the executor
// would choke on, so a 400 carries the reason instead of a queued run
// failing late.
func (r *RunRequest) Validate() error {
	switch r.Algo {
	case "en", "luby", "lubybit", "coloring":
	case "":
		return fmt.Errorf("missing algo (want en, luby, lubybit or coloring)")
	default:
		return fmt.Errorf("unknown algo %q (want en, luby, lubybit or coloring)", r.Algo)
	}
	if r.GraphFile != "" {
		// File-backed runs carry their shape in the file's header; the
		// family parameters must not also be set (they would silently lose).
		if r.Graph != "" {
			return fmt.Errorf("graphFile and a graph family are mutually exclusive")
		}
		if r.P != 0 || r.Deg != 0 {
			return fmt.Errorf("p and deg do not apply to a graphFile run")
		}
		if r.N < 0 {
			return fmt.Errorf("n must be nonnegative with graphFile, got %d", r.N)
		}
		if r.N > MaxN {
			return fmt.Errorf("n %d exceeds the service cap %d", r.N, MaxN)
		}
	} else {
		if r.Graph == "" {
			r.Graph = "gnp"
		}
		if err := ValidateGraphSpec(r.Graph, r.N, r.P, r.Deg); err != nil {
			return err
		}
		if r.N > MaxN {
			return fmt.Errorf("n %d exceeds the service cap %d", r.N, MaxN)
		}
	}
	if _, err := sim.ParseScheduler(r.Scheduler); err != nil {
		return err
	}
	if r.Workers < 0 {
		return fmt.Errorf("workers must be nonnegative, got %d", r.Workers)
	}
	if r.N > 0 && r.Workers > r.N {
		// Normalize rather than reject: the engine would clamp anyway, and
		// the telemetry summary reports the effective width. (A graphFile
		// run with N still 0 clamps once the header fills N in.)
		r.Workers = r.N
	}
	_, err := r.Adversary.adversary(r.Seed)
	return err
}

// ValidateGraphSpec rejects family parameters the generators would panic on —
// shared by request validation and csrgen, so every front end turns an
// infeasible shape into an error instead of a crashed worker.
func ValidateGraphSpec(kind string, n int, p float64, deg int) error {
	switch kind {
	case "gnp", "ring", "grid", "tree", "cliques", "regular":
	default:
		return fmt.Errorf("unknown graph family %q", kind)
	}
	if n <= 0 {
		return fmt.Errorf("n must be positive, got %d", n)
	}
	if p < 0 || p > 1 {
		return fmt.Errorf("p %v outside [0, 1]", p)
	}
	if deg < 0 {
		return fmt.Errorf("deg must be nonnegative, got %d", deg)
	}
	switch kind {
	case "cliques":
		if n < 4 {
			return fmt.Errorf("graph cliques needs n >= 4 (one clique of size 4), got n=%d", n)
		}
	case "regular":
		if deg == 0 {
			deg = 3 // the CLI default BuildGraph applies
		}
		if deg >= n {
			return fmt.Errorf("graph regular needs deg < n, got deg=%d n=%d", deg, n)
		}
		if n*deg%2 != 0 {
			return fmt.Errorf("graph regular needs n*deg even, got n=%d deg=%d", n, deg)
		}
	}
	return nil
}

// BuildGraph constructs the request's graph family exactly as the locsim CLI
// does (same generator, same seed discipline), so a daemon-submitted run and
// a CLI run of the same request solve the same instance.
func BuildGraph(kind string, n int, p float64, deg int, seed uint64) (*graph.Graph, error) {
	rng := prng.New(seed)
	switch kind {
	case "gnp":
		if p == 0 {
			p = 4.0 / float64(n)
		}
		return graph.GNPConnected(n, p, rng), nil
	case "ring":
		return graph.Ring(n), nil
	case "grid":
		s := 1
		for (s+1)*(s+1) <= n {
			s++
		}
		return graph.Grid(s, s), nil
	case "tree":
		return graph.RandomTree(n, rng), nil
	case "cliques":
		return graph.RingOfCliques(n/4, 4), nil
	case "regular":
		if deg == 0 {
			deg = 3
		}
		return graph.RandomRegular(n, deg, rng), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
}

// TelemetrySummary condenses a run's sim.Telemetry for the status API; the
// full per-round trace stays server-side.
type TelemetrySummary struct {
	Scheduler string         `json:"scheduler"`
	Workers   int            `json:"workers"`
	Rounds    int            `json:"rounds"`
	WallMS    float64        `json:"wallMS"`
	ComputeMS float64        `json:"computeMS"`
	Modes     map[string]int `json:"modes,omitempty"`
	Injected  map[string]int `json:"injected,omitempty"`
}

func summarizeTelemetry(tel *sim.Telemetry) *TelemetrySummary {
	if tel == nil {
		return nil
	}
	out := &TelemetrySummary{
		Scheduler: tel.Scheduler.String(),
		Workers:   tel.Workers,
		Rounds:    len(tel.Rounds),
		Modes:     map[string]int{},
	}
	var wallNS, computeNS int64
	for _, rs := range tel.Rounds {
		wallNS += rs.WallNS
		for _, c := range rs.ComputeNS {
			computeNS += c
		}
		for _, m := range rs.Mode {
			out.Modes[m.String()]++
		}
	}
	out.WallMS = float64(wallNS) / 1e6
	out.ComputeMS = float64(computeNS) / 1e6
	if len(tel.Injected) > 0 {
		out.Injected = map[string]int{}
		for _, ev := range tel.Injected {
			out.Injected[ev.Kind.String()] += ev.Count
		}
	}
	return out
}

// RunOutcome is the completed run's result: the engine accounting every
// scheduler agrees on byte for byte, the checker verdict, and the telemetry
// summary. A faulted run that ran to completion but failed its checker (or
// exhausted its phases) is an outcome with Valid=false and Reject set — the
// same one-sided-oracle reporting the CLI prints — while configuration and
// engine errors surface as request failures instead.
type RunOutcome struct {
	Valid          bool              `json:"valid"`
	Reject         string            `json:"reject,omitempty"`
	Summary        string            `json:"summary"`
	Rounds         int               `json:"rounds"`
	Messages       int64             `json:"messages"`
	BitsTotal      int64             `json:"bitsTotal"`
	MaxMessageBits int               `json:"maxMsgBits"`
	ActivePerRound []int             `json:"activePerRound"`
	Telemetry      *TelemetrySummary `json:"telemetry,omitempty"`
}

// accounting is the Result slice every algorithm shares.
func outcomeOf[T any](res *sim.Result[T]) *RunOutcome {
	return &RunOutcome{
		Rounds:         res.Rounds,
		Messages:       res.Messages,
		BitsTotal:      res.BitsTotal,
		MaxMessageBits: res.MaxMessageBits,
		ActivePerRound: res.ActivePerRound,
		Telemetry:      summarizeTelemetry(res.Telemetry),
	}
}

// Execute runs one validated request to its outcome. exec carries the host's
// per-run execution wiring — the engine pool, the forced telemetry, the
// progress hook — merged with the request's own scheduler knobs; passing the
// zero ExecOptions runs with package defaults, which is what the
// CLI-equivalence guarantee is stated against.
func Execute(req RunRequest, exec sim.ExecOptions) (*RunOutcome, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sched, err := sim.ParseScheduler(req.Scheduler)
	if err != nil {
		return nil, err
	}
	if sched == sim.Auto {
		sched = sim.Sequential
	}
	exec.Scheduler = sched
	exec.Workers = req.Workers
	if req.Unpacked {
		exec.Unpacked = true
	}

	var g *graph.Graph
	if req.GraphFile != "" {
		// File-backed run: the engines execute on the read-only mapping
		// directly; the closer releases it once the run (and its telemetry
		// summarization) is done.
		var closer io.Closer
		g, closer, err = graph.OpenCSRFile(req.GraphFile)
		if err != nil {
			return nil, err
		}
		defer closer.Close()
		if g.N() > MaxN {
			return nil, fmt.Errorf("graph file n=%d exceeds the service cap %d", g.N(), MaxN)
		}
		if req.N != 0 && req.N != g.N() {
			return nil, fmt.Errorf("request n=%d does not match the graph file's n=%d", req.N, g.N())
		}
		req.N = g.N()
		if req.Workers > req.N {
			req.Workers = req.N
		}
		exec.Workers = req.Workers
	} else {
		g, err = BuildGraph(req.Graph, req.N, req.P, req.Deg, req.Seed)
		if err != nil {
			return nil, err
		}
	}
	adv, err := req.Adversary.adversary(req.Seed)
	if err != nil {
		return nil, err
	}

	// Faulted runs follow the CLI's one-sided-oracle reporting: an
	// incomplete or checker-rejected execution is a Valid=false outcome
	// with the partial accounting, not a request error.
	reject := func(res *RunOutcome, phase string, cause error) *RunOutcome {
		res.Valid = false
		res.Reject = fmt.Sprintf("%s (%v)", phase, cause)
		res.Summary = fmt.Sprintf("%s under faults: %s", req.Algo, res.Reject)
		return res
	}

	switch req.Algo {
	case "en":
		src := randomness.NewFull(req.Seed)
		d, res, err := decomp.ElkinNeiman(g, src, nil, decomp.ENConfig{Adversary: adv, Exec: exec})
		if err != nil {
			if adv == nil || res == nil {
				return nil, err
			}
			return reject(outcomeOf(res), "INCOMPLETE", err), nil
		}
		out := outcomeOf(res)
		if verr := d.Validate(g, 0, 0); verr != nil {
			if adv == nil {
				return nil, fmt.Errorf("invalid decomposition: %w", verr)
			}
			return reject(out, "INVALID", verr), nil
		}
		st := d.StatsOf(g)
		out.Valid = true
		out.Summary = fmt.Sprintf("Elkin–Neiman: valid, colors=%d clusters=%d maxDiameter=%d trueBits=%d",
			st.Colors, st.Clusters, st.MaxDiameter, src.Ledger().TrueBits())
		return out, nil
	case "luby", "lubybit":
		src := randomness.NewFull(req.Seed)
		var in []bool
		var res *sim.Result[mis.LubyOutput]
		if req.Algo == "luby" {
			in, res, err = mis.Luby(g, src, nil, mis.LubyConfig{Adversary: adv, Exec: exec})
		} else {
			in, res, err = mis.LubyBit(g, src, nil, mis.LubyBitConfig{Adversary: adv, Exec: exec})
		}
		if err != nil {
			if adv == nil || res == nil {
				return nil, err
			}
			return reject(outcomeOf(res), "INCOMPLETE", err), nil
		}
		out := outcomeOf(res)
		if cerr := check.MIS(g, in); cerr != nil {
			if adv == nil {
				return nil, fmt.Errorf("invalid MIS: %w", cerr)
			}
			return reject(out, "INVALID", cerr), nil
		}
		size := 0
		for _, b := range in {
			if b {
				size++
			}
		}
		out.Valid = true
		out.Summary = fmt.Sprintf("%s MIS: valid, |MIS|=%d trueBits=%d", req.Algo, size, src.Ledger().TrueBits())
		return out, nil
	case "coloring":
		src := randomness.NewFull(req.Seed)
		colors, res, err := coloring.Randomized(g, src, nil, coloring.Config{Adversary: adv, Exec: exec})
		if err != nil {
			if adv == nil || res == nil {
				return nil, err
			}
			return reject(outcomeOf(res), "INCOMPLETE", err), nil
		}
		out := outcomeOf(res)
		if cerr := check.Coloring(g, colors, g.MaxDegree()+1); cerr != nil {
			if adv == nil {
				return nil, fmt.Errorf("invalid coloring: %w", cerr)
			}
			return reject(out, "INVALID", cerr), nil
		}
		out.Valid = true
		out.Summary = fmt.Sprintf("coloring: valid, palette=%d trueBits=%d", g.MaxDegree()+1, src.Ledger().TrueBits())
		return out, nil
	}
	return nil, fmt.Errorf("unknown algo %q", req.Algo)
}
