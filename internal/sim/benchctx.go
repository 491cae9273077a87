package sim

// NewBenchCtx returns a NodeCtx wired the way a one-worker engine wires
// one — an engine-owned Outbox scratch and a per-round payload arena — but
// outside any engine, plus a rotate function that advances the arena exactly
// as the engine does between rounds. It exists so a test can drive a single
// node program's Round method directly, in particular under
// testing.AllocsPerRun to assert that a steady-state round of a migrated
// (Outbox + arena) program allocates nothing:
//
//	ctx, rotate := sim.NewBenchCtx(deg, 42, 1<<10, ids)
//	prog.Init(ctx)
//	avg := testing.AllocsPerRun(100, func() {
//		rotate() // recycle the round-before-last's payload buffer
//		prog.Round(r, inbox)
//	})
//
// The inbox handed to Round must be built outside the measured loop (with
// the package-level Uints, not ctx.Uints): rotation recycles arena buffers,
// so arena-carved inbox payloads would be overwritten by the program's own
// carves mid-measurement. ctx.Rand is nil; programs whose measured round
// draws randomness should use their injection hooks (ENConfig.Radius,
// LubyConfig.Priority, coloring.Config.Candidate, ...) instead.
func NewBenchCtx(degree int, id uint64, n int, neighborIDs []uint64) (*NodeCtx, func()) {
	a := &arena{}
	ctx := &NodeCtx{
		ID:          id,
		Degree:      degree,
		N:           n,
		NeighborIDs: neighborIDs,
		Outbox:      make([]Message, degree),
		arena:       a,
	}
	return ctx, a.rotate
}

// NewPackedBenchCtx is NewBenchCtx for packed runs: the returned NodeCtx is
// wired to private bit planes the way the engines wire one when every program
// declares PayloadBits() <= 1, so a test can drive a 1-bit program's Round
// method directly — in particular under testing.AllocsPerRun, where a packed
// steady-state round must measure 0 allocs. setIn(p, bit) plants an incoming
// message carrying bit on port p, and reset clears both planes (what the
// engine's per-node harvest and the next round's delivery would do):
//
//	ctx, setIn, reset := sim.NewPackedBenchCtx(deg, 42, 1<<10, ids)
//	prog.Init(ctx)
//	avg := testing.AllocsPerRun(100, func() {
//		reset()
//		setIn(0, 1)
//		prog.Round(r, nil)
//	})
func NewPackedBenchCtx(degree int, id uint64, n int, neighborIDs []uint64) (ctx *NodeCtx, setIn func(p int, bit uint64), reset func()) {
	in := newBitPlane(degree)
	out := newBitPlane(degree)
	ctx = &NodeCtx{
		ID:          id,
		Degree:      degree,
		N:           n,
		NeighborIDs: neighborIDs,
		packed:      true,
		inBits:      in,
		outBits:     out,
	}
	setIn = func(p int, bit uint64) { in.set(int32(p), bit) }
	reset = func() {
		clear(in.present)
		clear(in.value)
		clear(out.present)
		clear(out.value)
	}
	return ctx, setIn, reset
}
