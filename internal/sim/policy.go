package sim

import (
	"fmt"
	"runtime"
)

// numProcs reports how many workers the runtime can actually execute
// concurrently. It is a variable so tests can simulate wider (or narrower)
// hardware than the host: the adaptive pool-width machinery reads it, and on
// a single-CPU CI runner the real value would collapse every multi-worker
// code path to width 1.
var numProcs = func() int { return runtime.GOMAXPROCS(0) }

// ReshardPolicy selects when RunParallel re-cuts its shards over the live
// worklist. Re-sharding is purely a performance decision: the Result —
// outputs, rounds, active trajectory and all counters — is identical under
// every policy (the equivalence suite asserts this), so policies exist to be
// A/B-benchmarked, not to change behavior.
type ReshardPolicy uint8

const (
	// ReshardAuto defers to the package-wide default (SetDefaultReshard);
	// out of the box that is ReshardAdaptive. It is the zero value — the
	// same pattern as Scheduler's Auto — so an *explicit* policy in a
	// Config is never silently overridden by the package default.
	ReshardAuto ReshardPolicy = iota
	// ReshardAdaptive is the cost model (and the out-of-the-box default):
	// the coordinator accumulates the barrier imbalance it observes — the
	// idle worker time implied by the spread of per-worker compute times —
	// and re-cuts only once that debt exceeds a multiple of the measured
	// price of the previous re-cut. A balanced run never pays for a cut it
	// does not need; a skewed shattering tail still gets re-balanced as
	// soon as the imbalance has cost more than re-balancing would. The
	// same ledger adapts the pool's width: surplus workers park when the
	// live set shrinks below per-worker profitability, and the pool is
	// clamped to the host's processor count (numProcs) up front — a pool
	// that collapses to width 1 dispatches to the sequential engine. Like
	// re-cut timing this moves wall clock only; Results stay byte-identical.
	ReshardAdaptive
	// ReshardHalving is the fixed legacy rule: re-cut every time the live
	// worklist has halved since the last cut, regardless of how balanced
	// the pool still is. Kept as an explicit override for A/B runs.
	ReshardHalving
	// ReshardOff never re-cuts: the initial whole-graph ShardBounds cut
	// stands for the entire run.
	ReshardOff
)

// String returns the flag-friendly name of the policy.
func (p ReshardPolicy) String() string {
	switch p {
	case ReshardAuto:
		return "auto"
	case ReshardAdaptive:
		return "adaptive"
	case ReshardHalving:
		return "halving"
	case ReshardOff:
		return "off"
	default:
		return fmt.Sprintf("ReshardPolicy(%d)", int(p))
	}
}

// ParseReshardPolicy parses a -reshard flag value.
func ParseReshardPolicy(name string) (ReshardPolicy, error) {
	switch name {
	case "", "auto":
		return ReshardAuto, nil
	case "adaptive":
		return ReshardAdaptive, nil
	case "halving":
		return ReshardHalving, nil
	case "off", "never":
		return ReshardOff, nil
	default:
		return ReshardAuto, fmt.Errorf("sim: unknown re-shard policy %q (want adaptive, halving or off)", name)
	}
}

// reshardPayoff is the adaptive policy's pay-off factor: a re-cut runs once
// the accumulated barrier-imbalance debt exceeds reshardPayoff × the
// estimated re-cut price, so a cut must plausibly pay for itself with margin
// before it is taken.
const reshardPayoff = 2

// reshardModel is the adaptive policy's cost model, kept free of clocks and
// engine state so its arithmetic is unit-testable with synthetic inputs. The
// coordinator charges it one set of per-worker compute times per round and
// asks whether the accumulated barrier-imbalance debt now out-weighs the
// price of a re-cut.
type reshardModel struct {
	workers int
	// costEstNS estimates the price of one re-cut: a conservative O(n)
	// guess until the first cut is measured, then the last measurement.
	costEstNS int64
	// wasteNS is the imbalance debt since the last cut: the summed idle
	// worker time at the compute barrier (workers×max − sum of compute
	// times), accumulated round by round.
	wasteNS int64
	// lastCutLive is the live worklist size at the last cut; a new cut
	// requires the worklist to have shrunk since — re-cutting an
	// unchanged worklist would reproduce the same bounds and pay the
	// price for nothing.
	lastCutLive int
}

func newReshardModel(workers, n int) *reshardModel {
	return &reshardModel{workers: workers, costEstNS: int64(n)*4 + 1000, lastCutLive: n}
}

// charge accumulates one round's barrier imbalance: maxNS is the slowest
// worker's compute time and sumNS the pool's total, so the round's idle
// worker time at the barrier is workers×max − sum.
func (m *reshardModel) charge(maxNS, sumNS int64) {
	m.wasteNS += maxNS*int64(m.workers) - sumNS
}

// shouldCut reports whether the accumulated debt justifies a re-cut over a
// live worklist of size liveN.
func (m *reshardModel) shouldCut(liveN int) bool {
	return liveN < m.lastCutLive && m.wasteNS >= reshardPayoff*m.costEstNS
}

// cutDone records a completed re-cut: the measured price replaces the
// estimate (floored so a lucky cheap cut cannot talk the model into
// thrashing) and the debt resets.
func (m *reshardModel) cutDone(liveN int, costNS int64) {
	if m.costEstNS = costNS; m.costEstNS < 1000 {
		m.costEstNS = 1000
	}
	m.lastCutLive = liveN
	m.wasteNS = 0
}

// parkPayoff is the pool-width ledger's pay-off factor: a worker stays in
// the pool only while the compute it would absorb is at least parkPayoff ×
// the per-worker coordination overhead it costs, so the pool shrinks through
// the shattering tail but never parks a worker that is still pulling
// meaningful weight.
const parkPayoff = 2

// widthHold is the hysteresis depth of the pool-width ledger: the desired
// width must disagree with the current width for widthHold consecutive
// rounds before the pool is actually resized. One noisy round — a GC pause,
// a scheduler hiccup — never triggers a re-cut on its own.
const widthHold = 2

// poolModel is the adaptive pool-width ledger, the RunParallel counterpart
// of reshardModel: the same debt bookkeeping, but deciding how *many*
// workers the next rounds should pay for rather than when to re-balance
// them. Like reshardModel it is kept free of clocks and engine state so its
// arithmetic is unit-testable with synthetic inputs. Each round the
// coordinator charges it the measured round wall time, the per-worker
// compute spread and the live population; desiredWidth then answers how
// many workers the measured per-node compute cost can keep profitably busy
// given the measured per-worker coordination overhead (barrier wake, scatter
// merge, coordinator bookkeeping).
type poolModel struct {
	maxWorkers int
	width      int
	// procs is the runtime's concurrency limit at model creation
	// (numProcs). Per-worker compute times are goroutine wall clocks, so on
	// an over-subscribed host the interleaved workers each measure close to
	// the full round span and the overhead EMA reads near zero — the
	// measurements cannot distinguish real parallelism from time-slicing.
	// The processor count can: no width beyond it ever pays, so rawDesired
	// clamps there.
	procs int
	// overheadNS is an EMA of the *per-worker* coordination overhead: the
	// round wall time minus the slowest worker's compute time — everything
	// the round spent on barriers, scatter and merging rather than compute
	// — divided by the pool width that paid it. It is only charged while
	// the pool is at width >= 2: a one-worker round has no barrier spread
	// to measure, and letting its near-zero overhead decay the EMA would
	// talk the model into re-growing a pool it just (correctly) parked —
	// the remembered multi-worker overhead is exactly the price a re-grown
	// pool would pay again.
	overheadNS int64
	// perNodeNS is an EMA of the compute cost of one active node: the
	// pool's summed compute time over the round's active population.
	perNodeNS int64
	// disagree counts consecutive rounds in which desiredWidth differed
	// from width; a resize waits for widthHold of them.
	disagree int
	// lastDesired is the width the previous round asked for, so the
	// hysteresis counter only accumulates while the request is stable.
	lastDesired int
	samples     int
}

func newPoolModel(workers int) *poolModel {
	return &poolModel{maxWorkers: workers, width: workers, lastDesired: workers, procs: numProcs()}
}

// ema folds one sample into a quarter-weight exponential moving average.
func ema(avg, sample int64) int64 {
	if avg == 0 {
		return sample
	}
	return avg + (sample-avg)/4
}

// charge folds one round's measurements into the ledger: wallNS is the
// coordinator-measured round wall time, maxNS the slowest worker's compute
// time, sumNS the pool's summed compute time, activeN the round's active
// population.
func (m *poolModel) charge(wallNS, maxNS, sumNS int64, activeN int) {
	if m.width >= 2 {
		if over := wallNS - maxNS; over > 0 {
			m.overheadNS = ema(m.overheadNS, over/int64(m.width))
		}
	}
	if activeN > 0 && sumNS > 0 {
		per := sumNS / int64(activeN)
		if per < 1 {
			per = 1
		}
		m.perNodeNS = ema(m.perNodeNS, per)
	}
	m.samples++
}

// desiredWidth returns how many workers the ledger wants for a live
// worklist of liveN nodes, with hysteresis already applied: it returns the
// current width until a different width has been profitable for widthHold
// consecutive rounds. The core rule: each worker must absorb at least
// parkPayoff × the measured per-worker coordination overhead in compute, so
// width ≈ liveN·perNodeNS / (parkPayoff·overheadNS), clamped to
// [1, maxWorkers] and to liveN (a shard needs at least one live node).
func (m *poolModel) desiredWidth(liveN int) int {
	if m.samples < 2 {
		return m.width // no measurements yet: keep the configured width
	}
	d := m.rawDesired(liveN)
	if d == m.width {
		m.disagree = 0
		m.lastDesired = d
		return m.width
	}
	if d == m.lastDesired {
		m.disagree++
	} else {
		m.disagree = 1
	}
	m.lastDesired = d
	if m.disagree < widthHold {
		return m.width
	}
	return d
}

// rawDesired is the hysteresis-free profitability computation, clamped to
// [1, min(maxWorkers, procs, liveN)].
func (m *poolModel) rawDesired(liveN int) int {
	if liveN < 1 {
		return 1
	}
	pwo := m.overheadNS
	if pwo < 1 {
		pwo = 1
	}
	d := int(int64(liveN) * m.perNodeNS / (parkPayoff * pwo))
	if d < 1 {
		d = 1
	}
	if d > m.maxWorkers {
		d = m.maxWorkers
	}
	if d > m.procs {
		d = m.procs
	}
	if d > liveN {
		d = liveN
	}
	return d
}

// resized records a completed pool resize.
func (m *poolModel) resized(width int) {
	m.width = width
	m.disagree = 0
	m.lastDesired = width
}
