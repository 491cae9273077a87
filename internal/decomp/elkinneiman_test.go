package decomp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

// mustENSchedule resolves cfg on n nodes, for programs built outside a run's
// slab.
func mustENSchedule(t testing.TB, cfg ENConfig, n int) *schedule {
	t.Helper()
	s, err := enSchedule(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestENEntryOrdering(t *testing.T) {
	a := enEntry{id: 5, val: 3}
	b := enEntry{id: 2, val: 3}
	c := enEntry{id: 9, val: 7}
	if !c.better(a) || !c.better(b) {
		t.Error("higher value must rank first")
	}
	if !b.better(a) || a.better(b) {
		t.Error("equal values must tie-break by lower ID")
	}
}

func TestElkinNeimanValidOnFamilies(t *testing.T) {
	rng := prng.New(2024)
	families := map[string]*graph.Graph{
		"ring64":      graph.Ring(64),
		"path100":     graph.Path(100),
		"grid8x8":     graph.Grid(8, 8),
		"gnp128":      graph.GNPConnected(128, 3.0/128, rng),
		"tree200":     graph.RandomTree(200, rng),
		"clique16":    graph.Complete(16),
		"singleton":   graph.NewBuilder(1).Graph(),
		"two":         graph.Path(2),
		"disconnect":  graph.Disjoint(graph.Ring(10), graph.Ring(10)),
		"ringcliques": graph.RingOfCliques(8, 6),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			src := randomness.NewFull(uint64(len(name)) * 7919)
			d, res, err := ElkinNeiman(g, src, nil, ENConfig{})
			if err != nil {
				t.Fatalf("EN failed: %v", err)
			}
			lg := log2Ceil(g.N()) + 1
			maxColors := 12*lg + 8
			maxDiam := 2 * (2*lg + 4) // two cluster radii
			if err := d.Validate(g, maxColors, maxDiam); err != nil {
				t.Fatalf("invalid decomposition: %v", err)
			}
			if res.MaxMessageBits > sim.CongestBits(g.N()) {
				t.Errorf("CONGEST violated: %d bits", res.MaxMessageBits)
			}
		})
	}
}

func TestElkinNeimanLogParameterShape(t *testing.T) {
	// The paper's claim: O(log n) colors, O(log n) strong diameter. Check
	// that colors/log2(n) and diameter/log2(n) stay below fixed constants
	// across a size sweep — the "shape" validation of experiment E1.
	rng := prng.New(7)
	for _, n := range []int{64, 256, 1024} {
		g := graph.GNPConnected(n, 4.0/float64(n), rng)
		src := randomness.NewFull(uint64(n))
		d, _, err := ElkinNeiman(g, src, nil, ENConfig{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lg := math.Log2(float64(n))
		st := d.StatsOf(g)
		if ratio := float64(st.Colors) / lg; ratio > 4 {
			t.Errorf("n=%d: colors=%d, colors/log n=%.1f too large", n, st.Colors, ratio)
		}
		if ratio := float64(st.MaxDiameter) / lg; ratio > 8 {
			t.Errorf("n=%d: diameter=%d, diam/log n=%.1f too large", n, st.MaxDiameter, ratio)
		}
	}
}

func TestElkinNeimanRoundComplexity(t *testing.T) {
	// O(log² n) CONGEST rounds: rounds / log² n bounded.
	rng := prng.New(3)
	g := graph.GNPConnected(512, 3.0/512, rng)
	_, res, err := ElkinNeiman(g, randomness.NewFull(5), nil, ENConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lg := math.Log2(512)
	if ratio := float64(res.Rounds) / (lg * lg); ratio > 6 {
		t.Errorf("rounds = %d, rounds/log² n = %.1f", res.Rounds, ratio)
	}
}

func TestElkinNeimanMatchesReference(t *testing.T) {
	// With identical injected radii, the message-passing program and the
	// centralized reference must produce the identical clustering.
	rng := prng.New(99)
	for trial := 0; trial < 6; trial++ {
		g := graph.GNPConnected(48, 0.07, rng)
		n := g.N()
		cap := 2*log2Ceil(n) + 4
		maxPhases := 12*log2Ceil(n) + 8
		// Pre-draw all radii deterministically.
		radii := make(map[[2]int]int)
		radiusRng := prng.New(uint64(trial) + 1)
		radius := func(v, phase int) int {
			key := [2]int{v, phase}
			if r, ok := radii[key]; ok {
				return r
			}
			r := 1
			for r < cap && radiusRng.Bool() {
				r++
			}
			radii[key] = r
			return r
		}
		// The program and reference must see the same draws; pre-populate
		// by querying in a fixed order.
		for phase := 0; phase < maxPhases; phase++ {
			for v := 0; v < n; v++ {
				radius(v, phase)
			}
		}
		cfg := ENConfig{Radius: radius, RadiusCap: cap, MaxPhases: maxPhases}
		d, _, err := ElkinNeiman(g, randomness.NewFull(1), nil, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(i)
		}
		ref := ElkinNeimanReference(g, ids, maxPhases, radius)
		for v := 0; v < n; v++ {
			if d.Cluster[v] != ref.Cluster[v] || d.Color[v] != ref.Color[v] {
				t.Fatalf("trial %d node %d: program (%d,%d) vs reference (%d,%d)",
					trial, v, d.Cluster[v], d.Color[v], ref.Cluster[v], ref.Color[v])
			}
		}
	}
}

func TestElkinNeimanCentersJoinOwnCluster(t *testing.T) {
	rng := prng.New(12)
	g := graph.GNPConnected(100, 0.05, rng)
	d, _, err := ElkinNeiman(g, randomness.NewFull(8), nil, ENConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster labels are center IDs (= node indices with default IDs):
	// every referenced center must belong to its own cluster.
	for v := 0; v < g.N(); v++ {
		center := d.Cluster[v]
		if d.Cluster[center] != center {
			t.Fatalf("node %d joined center %d, but that center is in cluster %d",
				v, center, d.Cluster[center])
		}
	}
}

func TestElkinNeimanDeterministicGivenSeed(t *testing.T) {
	g := graph.Ring(50)
	run := func() *Decomposition {
		d, _, err := ElkinNeiman(g, randomness.NewFull(1234), nil, ENConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := run(), run()
	for v := range a.Cluster {
		if a.Cluster[v] != b.Cluster[v] || a.Color[v] != b.Color[v] {
			t.Fatal("EN not deterministic for a fixed seed")
		}
	}
}

func TestElkinNeimanRandomnessBudget(t *testing.T) {
	// Lemma 3.3 budgets O(log² n) bits per node; measure the actual draw.
	g := graph.Ring(256)
	src := randomness.NewFull(77)
	_, _, err := ElkinNeiman(g, src, nil, ENConfig{})
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(src.Ledger().TrueBits()) / 256
	lg := math.Log2(256)
	if perNode > 4*lg*lg {
		t.Errorf("bits per node %.1f exceed O(log² n) budget (%0.f)", perNode, 4*lg*lg)
	}
}

func TestDecompositionValidateRejections(t *testing.T) {
	g := graph.Path(4)
	valid := &Decomposition{Cluster: []int{0, 0, 1, 1}, Color: []int{0, 0, 1, 1}}
	if err := valid.Validate(g, 2, 1); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	cases := map[string]*Decomposition{
		"short arrays":       {Cluster: []int{0}, Color: []int{0}},
		"unclustered node":   {Cluster: []int{0, -1, 1, 1}, Color: []int{0, 0, 1, 1}},
		"inconsistent color": {Cluster: []int{0, 0, 1, 1}, Color: []int{0, 1, 1, 1}},
		"adjacent same color": {
			Cluster: []int{0, 0, 1, 1}, Color: []int{0, 0, 0, 0}},
		"disconnected cluster": {
			Cluster: []int{0, 1, 0, 1}, Color: []int{0, 1, 0, 1}},
	}
	for name, d := range cases {
		if err := d.Validate(g, 0, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Diameter bound violation.
	one := &Decomposition{Cluster: []int{0, 0, 0, 0}, Color: []int{0, 0, 0, 0}}
	if err := one.Validate(g, 1, 2); err == nil {
		t.Error("diameter 3 accepted under bound 2")
	}
	if err := one.Validate(g, 1, 3); err != nil {
		t.Errorf("single cluster of P4 should be valid: %v", err)
	}
	// Color budget violation.
	many := &Decomposition{Cluster: []int{0, 1, 2, 3}, Color: []int{0, 1, 2, 3}}
	if err := many.Validate(g, 2, 0); err == nil {
		t.Error("4 colors accepted under bound 2")
	}
}

func TestDecompositionStats(t *testing.T) {
	g := graph.Path(6)
	d := &Decomposition{
		Cluster: []int{0, 0, 0, 1, 1, 2},
		Color:   []int{0, 0, 0, 1, 1, 0},
	}
	st := d.StatsOf(g)
	if st.Colors != 2 || st.Clusters != 3 || st.MaxSize != 3 || st.MaxDiameter != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestElkinNeimanParallelEngineAgrees(t *testing.T) {
	// The EN program under the worker-pool engine produces the exact same
	// decomposition as under the sequential scheduler.
	g := graph.GNPConnected(64, 0.08, prng.New(33))
	cfg := sim.Config{Graph: g, Source: randomness.NewFull(6), MaxMessageBits: sim.CongestBits(g.N())}
	s := mustENSchedule(t, ENConfig{}, g.N())
	seq, err := sim.Run(cfg, func(int) sim.NodeProgram[enOutput] { return &enProgram{s: s} })
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Source = randomness.NewFull(6)
	par, err := sim.RunParallel(cfg2, func(int) sim.NodeProgram[enOutput] { return &enProgram{s: s} }, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Outputs {
		if seq.Outputs[v] != par.Outputs[v] {
			t.Fatalf("node %d: %+v vs %+v", v, seq.Outputs[v], par.Outputs[v])
		}
	}
}

func TestElkinNeimanRandomAndAdversarialIDs(t *testing.T) {
	rng := prng.New(44)
	g := graph.GNPConnected(128, 0.04, rng)
	for name, ids := range map[string][]uint64{
		"random":      sim.RandomIDs(g.N(), g.N(), sim.NewSimulationKey(rng.Uint64())),
		"adversarial": sim.AdversarialDescendingIDs(g.N()),
	} {
		d, _, err := ElkinNeiman(g, randomness.NewFull(11), ids, ENConfig{})
		if err != nil {
			t.Fatalf("%s IDs: %v", name, err)
		}
		if err := d.Validate(g, 0, 0); err != nil {
			t.Fatalf("%s IDs: invalid: %v", name, err)
		}
	}
}

func TestElkinNeimanUnderKT0(t *testing.T) {
	// EN never consults NeighborIDs, so KT0 must work identically.
	g := graph.Ring(64)
	cfg := sim.Config{Graph: g, Source: randomness.NewFull(2), MaxMessageBits: sim.CongestBits(64), KT0: true}
	s := mustENSchedule(t, ENConfig{}, g.N())
	res, err := sim.Run(cfg, func(int) sim.NodeProgram[enOutput] { return &enProgram{s: s} })
	if err != nil {
		t.Fatal(err)
	}
	d := &Decomposition{Cluster: make([]int, 64), Color: make([]int, 64)}
	for v, out := range res.Outputs {
		d.Cluster[v], d.Color[v] = out.Cluster, out.Color
	}
	if err := d.Validate(g, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// enOracle is the Elkin–Neiman program as it was before the flood became
// incremental: every flood round re-encodes the node's top-2 into the
// per-round arena, and every receiver decodes and merges every port. It is
// the oracle the incremental enProgram is held to, Result for Result.
type enOracle struct {
	cfg      ENConfig
	ctx      *sim.NodeCtx
	phaseLen int
	top      []enEntry // at most 2, distinct centers, sorted best-first
	scratch  [5]uint64 // encode buffer: count + two (center, value) pairs
	out      enOutput
}

func (p *enOracle) Init(ctx *sim.NodeCtx) {
	p.ctx = ctx
	p.cfg = p.cfg.withDefaults(ctx.N)
	p.phaseLen = p.cfg.RadiusCap + 2
	p.out = enOutput{Cluster: -1, Color: -1}
}

func (p *enOracle) drawRadius(phase int) int {
	if p.cfg.Radius != nil {
		r := p.cfg.Radius(p.ctx.Index, phase)
		if r < 1 {
			r = 1
		}
		if r > p.cfg.RadiusCap {
			r = p.cfg.RadiusCap
		}
		return r
	}
	r, _ := p.ctx.Rand.Geometric(p.cfg.RadiusCap)
	return r
}

func (p *enOracle) merge(e enEntry) {
	if e.val < 0 {
		return
	}
	for i, cur := range p.top {
		if cur.id == e.id {
			if e.better(cur) {
				p.top[i] = e
				p.sortTop()
			}
			return
		}
	}
	p.top = append(p.top, e)
	p.sortTop()
	if len(p.top) > 2 {
		p.top = p.top[:2]
	}
}

func (p *enOracle) sortTop() {
	for i := 1; i < len(p.top); i++ {
		for j := i; j > 0 && p.top[j].better(p.top[j-1]); j-- {
			p.top[j], p.top[j-1] = p.top[j-1], p.top[j]
		}
	}
}

func (p *enOracle) broadcast() []sim.Message {
	buf := append(p.scratch[:0], uint64(len(p.top)))
	for _, e := range p.top {
		buf = append(buf, e.id, uint64(e.val))
	}
	return p.ctx.Broadcast(p.ctx.Uints(buf...))
}

func (p *enOracle) Round(r int, inbox []sim.Message) ([]sim.Message, bool) {
	phase := r / p.phaseLen
	t := r % p.phaseLen
	if phase >= p.cfg.MaxPhases {
		return nil, true
	}
	switch {
	case t == 0:
		radius := p.drawRadius(phase)
		p.top = p.top[:0]
		p.merge(enEntry{id: p.ctx.ID, val: radius})
		return p.broadcast(), false
	case t <= p.cfg.RadiusCap:
		for _, m := range inbox {
			if m == nil {
				continue
			}
			k, rest, ok := sim.ReadUint(m)
			if !ok {
				continue
			}
			for i := uint64(0); i < k; i++ {
				var id, val uint64
				if id, rest, ok = sim.ReadUint(rest); !ok {
					break
				}
				if val, rest, ok = sim.ReadUint(rest); !ok {
					break
				}
				p.merge(enEntry{id: id, val: int(val) - 1})
			}
		}
		return p.broadcast(), false
	default:
		m1 := p.top[0].val
		m2 := 0
		if len(p.top) > 1 {
			m2 = p.top[1].val
		}
		if m1-m2 > 1 {
			p.out = enOutput{Cluster: int(p.top[0].id), Color: phase}
			return nil, true
		}
		return nil, false
	}
}

func (p *enOracle) Output() enOutput { return p.out }

// enOracleRun is ElkinNeiman with the oracle program.
func enOracleRun(g *graph.Graph, src randomness.Source, ids []uint64, cfg ENConfig) (*Decomposition, *sim.Result[enOutput], error) {
	simCfg := sim.Config{
		Graph:          g,
		IDs:            ids,
		Source:         src,
		MaxMessageBits: sim.CongestBits(g.N()),
		Adversary:      cfg.Adversary,
	}
	cfg.Exec.Apply(&simCfg)
	res, err := sim.Execute(simCfg, func(int) sim.NodeProgram[enOutput] { return &enOracle{cfg: cfg} })
	if err != nil {
		return nil, nil, err
	}
	return enDecomposition(res)
}

// enCase is one differential instance: everything but the program.
type enCase struct {
	g       *graph.Graph
	ids     []uint64
	seed    uint64
	adv     *sim.AdversaryConfig
	radius  bool // inject a radius function instead of private coins
	cap     int
	workers int
}

// checkENAgainstOracle runs c with ElkinNeiman and with the oracle and
// requires the same error, decomposition and Result: outputs, rounds,
// messages, bits, the largest message, the active trace and the injected
// fault events.
func checkENAgainstOracle(t *testing.T, label string, c enCase) *sim.Result[enOutput] {
	t.Helper()
	run := func(f func(*graph.Graph, randomness.Source, []uint64, ENConfig) (*Decomposition, *sim.Result[enOutput], error)) (*Decomposition, *sim.Result[enOutput], error) {
		cfg := ENConfig{RadiusCap: c.cap}
		if c.radius {
			cfg.Radius = func(v, phase int) int {
				return 1 + int(prng.Hash64(c.seed^uint64(v)<<20^uint64(phase))%uint64(max(c.cap, 4)))
			}
		}
		if c.adv != nil {
			adv, err := sim.NewAdversary(sim.NewSimulationKey(c.seed), *c.adv)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Adversary = adv
		}
		if c.workers > 1 {
			cfg.Exec = sim.ExecOptions{Scheduler: sim.Parallel, Workers: c.workers}
		}
		return f(c.g, randomness.NewFull(c.seed), c.ids, cfg)
	}
	wd, want, werr := run(enOracleRun)
	gd, got, gerr := run(ElkinNeiman)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("%s: error %v, oracle %v", label, gerr, werr)
	}
	if want == nil {
		return nil
	}
	if got.Rounds != want.Rounds || got.Messages != want.Messages ||
		got.BitsTotal != want.BitsTotal || got.MaxMessageBits != want.MaxMessageBits {
		t.Fatalf("%s: (rounds, msgs, bits, maxBits) = (%d, %d, %d, %d), oracle (%d, %d, %d, %d)", label,
			got.Rounds, got.Messages, got.BitsTotal, got.MaxMessageBits,
			want.Rounds, want.Messages, want.BitsTotal, want.MaxMessageBits)
	}
	if !slices.Equal(got.ActivePerRound, want.ActivePerRound) {
		t.Fatalf("%s: active trace differs from the oracle's", label)
	}
	if !slices.Equal(got.Outputs, want.Outputs) {
		t.Fatalf("%s: outputs differ from the oracle's", label)
	}
	if !slices.Equal(gd.Cluster, wd.Cluster) || !slices.Equal(gd.Color, wd.Color) {
		t.Fatalf("%s: decomposition differs from the oracle's", label)
	}
	if (got.Telemetry == nil) != (want.Telemetry == nil) ||
		got.Telemetry != nil && !slices.Equal(got.Telemetry.Injected, want.Telemetry.Injected) {
		t.Fatalf("%s: injected events differ from the oracle's", label)
	}
	return got
}

// enFaults are the adversaries of the differential tests: each fault kind
// alone, then all together.
var enFaults = map[string]*sim.AdversaryConfig{
	"none":  nil,
	"drop":  {DropProb: 0.15},
	"delay": {DelayProb: 0.2, DelayMax: 3},
	"crash": {CrashPerRound: 1},
	"churn": {ChurnPerRound: 2, HealPerRound: 1},
	"stall": {StallPerRound: 2},
	"all":   {DropProb: 0.05, DelayProb: 0.1, DelayMax: 4, ChurnPerRound: 1, HealPerRound: 1, StallPerRound: 1},
}

func TestENIncrementalMatchesOracle(t *testing.T) {
	rng := prng.New(36)
	graphs := map[string]*graph.Graph{
		"gnp":         graph.GNPConnected(96, 4.0/96, rng),
		"ring":        graph.Ring(40),
		"grid":        graph.Grid(6, 7),
		"clique":      graph.Complete(12),
		"ringcliques": graph.RingOfCliques(5, 5),
		"gnp300":      graph.GNPConnected(300, 3.0/300, rng),
	}
	for gname, g := range graphs {
		// Random IDs from [0, n²) need three-byte varints at n = 300, which
		// CONGEST admits from n = 256 up; smaller graphs draw from [0, 2n).
		spread := 2
		if g.N() >= 256 {
			spread = g.N()
		}
		ids := map[string][]uint64{
			"default": nil,
			"random":  sim.RandomIDs(g.N(), spread, sim.NewSimulationKey(uint64(g.N()))),
			"desc":    sim.AdversarialDescendingIDs(g.N()),
		}
		for fname, adv := range enFaults {
			for i, idName := range []string{"default", "random", "desc"} {
				c := enCase{g: g, ids: ids[idName], seed: uint64(len(gname)*131 + len(fname)), adv: adv,
					radius: i == 1, workers: 1 + (len(fname)+i)%3}
				if i == 2 {
					c.cap = 5 // short phases: more of them, so more resets
				}
				label := fmt.Sprintf("%s/%s/%s/radius=%v/workers=%d", gname, fname, idName, c.radius, c.workers)
				if checkENAgainstOracle(t, label, c) == nil {
					t.Fatalf("%s: no Result to compare", label)
				}
			}
		}
	}
}

// FuzzENIncremental holds ElkinNeiman to the oracle on fuzzed small graphs,
// identifier assignments, adversaries (drop, delay with DelayMax up to 4,
// crash, churn and heal, stall), radius overrides, radius caps and widths
// 1–3.
func FuzzENIncremental(f *testing.F) {
	f.Add(uint64(1), uint8(24), uint8(40), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(20), uint8(30), uint8(20), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(3), uint8(30), uint8(60), uint8(0), uint8(50), uint8(0x21), uint8(3), uint8(2))
	f.Add(uint64(4), uint8(50), uint8(15), uint8(10), uint8(10), uint8(0x52), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n, density, drop, delay, events, shape, workers uint8) {
		nn := 1 + int(n)%64
		p := 0.02 + float64(density)/512
		rng := prng.New(seed)
		g := graph.GNP(nn, p, rng)
		if shape&4 != 0 {
			g = graph.GNPConnected(nn, p, rng)
		}
		var ids []uint64
		switch shape & 3 {
		case 1:
			ids = sim.RandomIDs(nn, 2, sim.NewSimulationKey(seed))
		case 2:
			ids = sim.AdversarialDescendingIDs(nn)
		}
		adv := &sim.AdversaryConfig{
			DropProb:      float64(drop%64) / 256,
			DelayProb:     float64(delay%64) / 256,
			DelayMax:      1 + int(delay>>6),
			CrashPerRound: int(events & 1),
			ChurnPerRound: int(events>>1) & 3,
			HealPerRound:  int(events>>3) & 1,
			StallPerRound: int(events>>4) & 3,
		}
		if adv.DropProb == 0 && adv.DelayProb == 0 && events == 0 {
			adv = nil
		}
		c := enCase{g: g, ids: ids, seed: seed, adv: adv, radius: shape&8 != 0,
			cap: int(shape>>4) % 8, workers: 1 + int(workers)%3}
		checkENAgainstOracle(t, "fuzz", c)
	})
}
