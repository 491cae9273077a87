package sim_test

import (
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/mis"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// TestReferenceEquivalenceLuby holds the engines to the reference engine on
// the repository's MIS programs: Luby (full-width messages) and LubyBit
// (1-bit messages, run both packed and unpacked). It lives in the external
// test package because package sim's own tests cannot import mis.
func TestReferenceEquivalenceLuby(t *testing.T) {
	g := graph.PowerLaw(300, 3, prng.New(2019))
	cfg := sim.Config{Graph: g, MaxMessageBits: sim.CongestBits(g.N())}
	src := func() randomness.Source { return randomness.NewFull(4) }
	t.Run("luby", func(t *testing.T) {
		sim.CheckReference(t, cfg, src, func(int) sim.NodeProgram[mis.LubyOutput] { return mis.NewProgram(mis.LubyConfig{}) })
	})
	t.Run("lubybit", func(t *testing.T) {
		sim.CheckReference(t, cfg, src, func(int) sim.NodeProgram[mis.LubyOutput] { return mis.NewBitProgram(mis.LubyBitConfig{}) })
	})
}
