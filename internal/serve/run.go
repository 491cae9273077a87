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
	"strings"

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

// MaxHalfEdges bounds the expected half-edge count of an accepted generated
// graph: 16 per node at the n cap. Without it a dense shape at a legal n
// (gnp with n = 2^22 and p = 1) would send BuildGraph after ~10^13
// half-edges.
const MaxHalfEdges = 16 * MaxN

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
	// min(1, 4/n) for gnp, Deg 0 means 3 for regular, grid rounds to a square.
	Graph string  `json:"graph,omitempty"`
	N     int     `json:"n"`
	P     float64 `json:"p,omitempty"`
	Deg   int     `json:"deg,omitempty"`
	// GraphFile, when set, runs on a prebuilt on-disk CSR graph (cmd/csrgen)
	// instead of a generated family: Graph/P/Deg must be unset and N may be
	// 0 (it is filled from the file's header) or must match it. Over HTTP
	// the path is resolved inside the daemon's -graphdir sandbox; direct
	// Execute callers pass any path.
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
		if h := expectedHalfEdges(r.Graph, r.N, r.P, r.Deg); h > MaxHalfEdges {
			return fmt.Errorf("graph %s with n=%d is expected to have %.3g half-edges, over the service cap %d",
				r.Graph, r.N, h, MaxHalfEdges)
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
		// run with N still 0 is left to the engine's clamp.)
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
		_, deg = FamilyDefaults(n, p, deg)
		if deg >= n {
			return fmt.Errorf("graph regular needs deg < n, got deg=%d n=%d", deg, n)
		}
		if n*deg%2 != 0 {
			return fmt.Errorf("graph regular needs n*deg even, got n=%d deg=%d", n, deg)
		}
		if 2*deg > n {
			// The generator's edge-swap repair stops converging on denser
			// graphs (it panics after its guard, e.g. at n=16, deg=15).
			return fmt.Errorf("graph regular needs deg <= n/2, got deg=%d n=%d", deg, n)
		}
	}
	return nil
}

// FamilyDefaults applies the CLI defaults for unset family parameters:
// p = 0 means min(1, 4/n) for gnp (expected degree about 4; below 4 nodes
// that is the clique) and deg = 0 means 3 for regular. BuildGraph, request
// validation and csrgen all take the defaults from here.
func FamilyDefaults(n int, p float64, deg int) (float64, int) {
	if p == 0 {
		p = min(1, 4.0/float64(n))
	}
	if deg == 0 {
		deg = 3
	}
	return p, deg
}

// expectedHalfEdges is the expected half-edge count of a generated family
// with the defaults applied: p·n·(n−1) for gnp and n·deg for regular. The
// other families have at most 4n, which the n cap already bounds.
func expectedHalfEdges(kind string, n int, p float64, deg int) float64 {
	p, deg = FamilyDefaults(n, p, deg)
	switch kind {
	case "gnp":
		return p * float64(n) * float64(n-1)
	case "regular":
		return float64(n) * float64(deg)
	default:
		return 4 * float64(n)
	}
}

// BuildGraph constructs the request's graph family exactly as the locsim CLI
// does (same generator, same seed discipline), so a daemon-submitted run and
// a CLI run of the same request solve the same instance. It checks the shape
// with ValidateGraphSpec first, so every front end gets an error, never a
// generator panic, for an infeasible one.
func BuildGraph(kind string, n int, p float64, deg int, seed uint64) (*graph.Graph, error) {
	if err := ValidateGraphSpec(kind, n, p, deg); err != nil {
		return nil, err
	}
	p, deg = FamilyDefaults(n, p, deg)
	rng := prng.New(seed)
	switch kind {
	case "gnp":
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
		return graph.RandomRegular(n, deg, rng), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
}

// TelemetrySummary condenses a run's sim.Telemetry for the status API and
// the locsim -telemetry lines; the full per-round trace stays server-side.
type TelemetrySummary struct {
	Scheduler string  `json:"scheduler"`
	Workers   int     `json:"workers"`
	Rounds    int     `json:"rounds"`
	WallMS    float64 `json:"wallMS"`
	ComputeMS float64 `json:"computeMS"`
	// IdleMS is the barrier idle: per round, the time the lanes waited for
	// the slowest one (max compute × workers − Σ compute), summed.
	IdleMS   float64        `json:"idleMS"`
	Modes    map[string]int `json:"modes,omitempty"`
	Injected map[string]int `json:"injected,omitempty"`
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
	var wallNS, computeNS, idleNS int64
	for _, rs := range tel.Rounds {
		wallNS += rs.WallNS
		var roundNS, maxNS int64
		for _, c := range rs.ComputeNS {
			roundNS += c
			maxNS = max(maxNS, c)
		}
		computeNS += roundNS
		idleNS += maxNS*int64(tel.Workers) - roundNS
		for _, m := range rs.Mode {
			out.Modes[m.String()]++
		}
	}
	out.WallMS = float64(wallNS) / 1e6
	out.ComputeMS = float64(computeNS) / 1e6
	out.IdleMS = float64(idleNS) / 1e6
	if len(tel.Injected) > 0 {
		out.Injected = map[string]int{}
		for _, ev := range tel.Injected {
			out.Injected[ev.Kind.String()] += ev.Count
		}
	}
	return out
}

// String renders the summary as the locsim "telemetry:" lines: pool shape
// and time split, then the delivery-mode split and the injected-fault
// totals when there are any. A nil summary renders as nothing.
func (s *TelemetrySummary) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: scheduler=%s workers=%d rounds=%d wall=%.1fms compute=%.1fms barrier-idle=%.1fms\n",
		s.Scheduler, s.Workers, s.Rounds, s.WallMS, s.ComputeMS, s.IdleMS)
	if len(s.Modes) > 0 {
		fmt.Fprintf(&b, "telemetry: delivery modes: %d packed / %d dense / %d sparse (per worker-round)\n",
			s.Modes[sim.DeliverPacked.String()], s.Modes[sim.DeliverDense.String()], s.Modes[sim.DeliverSparse.String()])
	}
	if len(s.Injected) > 0 {
		b.WriteString("telemetry: injected faults:")
		for k := sim.InjectDrop; k <= sim.InjectStallLoss; k++ {
			if c := s.Injected[k.String()]; c > 0 {
				fmt.Fprintf(&b, " %v=%d", k, c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunOutcome is the completed run's result: the engine accounting every
// scheduler agrees on byte for byte, the checker verdict, and the telemetry
// summary. A faulted run that ran to completion but failed its checker (or
// exhausted its phases) is an outcome with Valid=false and Reject set — the
// one-sided-oracle reporting locsim prints — while configuration and
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

// outcomeOf is the Result slice every algorithm shares; nil for a run that
// produced no Result.
func outcomeOf[T any](res *sim.Result[T]) *RunOutcome {
	if res == nil {
		return nil
	}
	return &RunOutcome{
		Rounds:         res.Rounds,
		Messages:       res.Messages,
		BitsTotal:      res.BitsTotal,
		MaxMessageBits: res.MaxMessageBits,
		ActivePerRound: res.ActivePerRound,
		Telemetry:      summarizeTelemetry(res.Telemetry),
	}
}

// Execute admits one request and runs it to its outcome: Validate, then the
// request's graph — BuildGraph, or the mapped graph file under the n cap —
// then Run. exec carries the host's per-run execution wiring (the engine
// pool, the forced telemetry, the progress hook); the zero ExecOptions runs
// unpooled without telemetry or hook, as the locsim CLI does, which is what
// the CLI-equivalence guarantee is stated against.
func Execute(req RunRequest, exec sim.ExecOptions) (*RunOutcome, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.GraphFile == "" {
		g, err := BuildGraph(req.Graph, req.N, req.P, req.Deg, req.Seed)
		if err != nil {
			return nil, err
		}
		return Run(g, req, exec)
	}
	// File-backed run: the engines execute on the read-only mapping
	// directly; the closer releases it once the run (and its telemetry
	// summarization) is done.
	g, closer, err := graph.OpenCSRFile(req.GraphFile)
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
	return Run(g, req, exec)
}

// Run executes req's algorithm on g — the engine knobs, the adversary, the
// run and its checker — merging the request's scheduler, workers and
// unpacked knobs into exec. It applies none of the service caps and ignores
// the request's graph fields, so the locsim CLI runs any graph it can load
// through it. Faulted runs follow the one-sided-oracle reporting: an
// incomplete or checker-rejected execution is a Valid=false outcome with the
// partial accounting, not an error; a fault-free one is an error.
func Run(g *graph.Graph, req RunRequest, exec sim.ExecOptions) (*RunOutcome, error) {
	sched, err := sim.ParseScheduler(req.Scheduler)
	if err != nil {
		return nil, err
	}
	exec.Scheduler = sched
	exec.Workers = req.Workers
	if req.Unpacked {
		exec.Unpacked = true
	}
	adv, err := req.Adversary.adversary(req.Seed)
	if err != nil {
		return nil, err
	}

	src := randomness.NewFull(req.Seed)
	var (
		out    *RunOutcome
		runErr error
		// verdict checks the run's output and, when it holds, returns the
		// valid summary.
		verdict func() (string, error)
	)
	switch req.Algo {
	case "en":
		d, res, err := decomp.ElkinNeiman(g, src, nil, decomp.ENConfig{Adversary: adv, Exec: exec})
		out, runErr = outcomeOf(res), err
		verdict = func() (string, error) {
			if err := d.Validate(g, 0, 0); err != nil {
				return "", err
			}
			st := d.StatsOf(g)
			return fmt.Sprintf("Elkin–Neiman: valid, colors=%d clusters=%d maxDiameter=%d maxSize=%d trueBits=%d",
				st.Colors, st.Clusters, st.MaxDiameter, st.MaxSize, src.Ledger().TrueBits()), nil
		}
	case "luby", "lubybit":
		var in []bool
		var res *sim.Result[mis.LubyOutput]
		if req.Algo == "luby" {
			in, res, runErr = mis.Luby(g, src, nil, mis.LubyConfig{Adversary: adv, Exec: exec})
		} else {
			in, res, runErr = mis.LubyBit(g, src, nil, mis.LubyBitConfig{Adversary: adv, Exec: exec})
		}
		out = outcomeOf(res)
		verdict = func() (string, error) {
			if err := check.MIS(g, in); err != nil {
				return "", err
			}
			size := 0
			for _, b := range in {
				if b {
					size++
				}
			}
			return fmt.Sprintf("%s MIS: valid, |MIS|=%d trueBits=%d", req.Algo, size, src.Ledger().TrueBits()), nil
		}
	case "coloring":
		colors, res, err := coloring.Randomized(g, src, nil, coloring.Config{Adversary: adv, Exec: exec})
		out, runErr = outcomeOf(res), err
		verdict = func() (string, error) {
			if err := check.Coloring(g, colors, g.MaxDegree()+1); err != nil {
				return "", err
			}
			return fmt.Sprintf("coloring: valid, palette=%d trueBits=%d", g.MaxDegree()+1, src.Ledger().TrueBits()), nil
		}
	default:
		return nil, fmt.Errorf("unknown algo %q", req.Algo)
	}

	// Only a faulted run may end INCOMPLETE or INVALID; without an
	// adversary either is an error.
	reject := func(phase string, cause error) *RunOutcome {
		out.Reject = fmt.Sprintf("%s (%v)", phase, cause)
		out.Summary = fmt.Sprintf("%s under faults: %s", req.Algo, out.Reject)
		return out
	}
	if runErr != nil {
		if adv == nil || out == nil {
			return nil, runErr
		}
		return reject("INCOMPLETE", runErr), nil
	}
	summary, err := verdict()
	if err != nil {
		if adv == nil {
			return nil, fmt.Errorf("%s: invalid output: %w", req.Algo, err)
		}
		return reject("INVALID", err), nil
	}
	out.Valid, out.Summary = true, summary
	return out, nil
}
