package decomp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

// checkCarveAgainstOracle runs the engine carving and the central oracle
// sharedRandCore with the same supplier and requires the same error, the
// same cluster and color arrays and the same phase count, with the measured
// rounds inside the schedule's budget.
func checkCarveAgainstOracle(t *testing.T, label string, g *graph.Graph, cfg SharedRandConfig, center func(v, phase, epoch int) (int, bool)) {
	t.Helper()
	got, gerr := newCarving(g.N(), cfg).carve(g, center)
	sample := func(v, phase, epoch int) bool {
		_, ok := center(v, phase, epoch)
		return ok
	}
	radius := func(v, phase, epoch int) int {
		x, _ := center(v, phase, epoch)
		return x
	}
	want, phases, _, werr := sharedRandCore(g, cfg, sample, radius)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, oracle %v", label, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !slices.Equal(got.Decomposition.Cluster, want.Cluster) || !slices.Equal(got.Decomposition.Color, want.Color) {
		t.Fatalf("%s: decomposition differs from the oracle's", label)
	}
	if got.Phases != phases {
		t.Fatalf("%s: %d phases, oracle %d", label, got.Phases, phases)
	}
	if got.Rounds > got.AnalyticRounds {
		t.Fatalf("%s: measured %d rounds > analytic %d", label, got.Rounds, got.AnalyticRounds)
	}
}

// TestCarveMatchesOracle holds the Theorem 3.6 carving on the engine to the
// central oracle on E5's instances (gnp(3/n) and the grid at 256, 512 and
// 1024 nodes) and on n = 129, 200 and 255, where IDs and measures both take
// two varint bytes, so a count byte would overflow CONGEST.
func TestCarveMatchesOracle(t *testing.T) {
	rng := prng.New(37)
	type instance struct {
		name string
		g    *graph.Graph
	}
	cases := []instance{
		{"gnp129", graph.GNPConnected(129, 3.0/129, rng)},
		{"gnp200", graph.GNPConnected(200, 3.0/200, rng)},
		{"gnp255", graph.GNPConnected(255, 3.0/255, rng)},
	}
	for _, n := range []int{256, 512, 1024} {
		cases = append(cases, instance{fmt.Sprintf("gnp%d", n), graph.GNPConnected(n, 3.0/float64(n), rng)})
	}
	for _, side := range []int{16, 22, 32} { // E5's grids: ⌊√n⌋ per side
		cases = append(cases, instance{fmt.Sprintf("grid%d", side*side), graph.Grid(side, side)})
	}
	for _, tc := range cases {
		n := tc.g.N()
		center, _, err := sharedCenters(newCarving(n, SharedRandConfig{}), randomness.NewShared(300_000, prng.New(uint64(n))), 0)
		if err != nil {
			t.Fatal(err)
		}
		checkCarveAgainstOracle(t, tc.name, tc.g, SharedRandConfig{}, center)
	}
}

// FuzzCarve holds the engine carving to the oracle on fuzzed small graphs,
// radius constants, phase caps and supplier bits: a node is a center in an
// early epoch with a fuzzed probability (always in the last epoch, as the
// construction requires), and its radius draw may fall outside [1, cap].
func FuzzCarve(f *testing.F) {
	f.Add(uint64(1), uint8(24), uint8(40), uint8(0), uint8(0), uint8(128))
	f.Add(uint64(2), uint8(60), uint8(10), uint8(1), uint8(3), uint8(16))
	f.Add(uint64(3), uint8(40), uint8(90), uint8(3), uint8(1), uint8(0))
	f.Add(uint64(4), uint8(63), uint8(20), uint8(2), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, n, density, c, phases, prob uint8) {
		nn := 1 + int(n)%64
		g := graph.GNP(nn, 0.02+float64(density)/512, prng.New(seed))
		cfg := SharedRandConfig{C: 1 + int(c)%4, MaxPhases: int(phases) % 8}
		p := newCarving(nn, cfg).p
		center := func(v, phase, epoch int) (int, bool) {
			h := prng.Hash64(seed ^ uint64(v)<<32 ^ uint64(phase)<<16 ^ uint64(epoch))
			if epoch < p && uint8(h) >= prob {
				return 0, false
			}
			return int(h>>8%64) - 2, true
		}
		checkCarveAgainstOracle(t, "fuzz", g, cfg, center)
	})
}

// TestElkinNeimanRejectsNegativeConfig: a negative radius cap or phase
// bound is an error, not a divide by zero or a run that merges nothing.
func TestElkinNeimanRejectsNegativeConfig(t *testing.T) {
	g := graph.Ring(8)
	for _, cfg := range []ENConfig{{RadiusCap: -2}, {RadiusCap: -1}, {MaxPhases: -2}, {MaxPhases: -1}} {
		_, _, err := ElkinNeiman(g, randomness.NewFull(1), nil, cfg)
		if err == nil || !strings.Contains(err.Error(), "ENConfig needs") {
			t.Errorf("RadiusCap=%d MaxPhases=%d: error %v", cfg.RadiusCap, cfg.MaxPhases, err)
		}
	}
}
