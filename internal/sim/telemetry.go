package sim

import "sync/atomic"

// Telemetry is the optional per-run measurement record the engines attach to
// Result.Telemetry when collection is enabled (SetTelemetry). It answers the
// scheduling questions the round/message counters cannot: how was each
// round's compute time distributed over the pool, how many messages did each
// worker stage, and which delivery strategy did each shard pick.
//
// Collection follows the same pattern as the poisoned-Outbox debug check: a
// package-level switch latched once at run start, with near-zero cost when
// off (no engine reads the clock unless the run records telemetry).
//
// Wall-clock fields are measurements of this host's execution, not model
// quantities: unlike every other Result field they are not identical across
// schedulers or repeated runs. The per-lane staged counts and delivery modes
// depend only on the Config, the engine and its worker count.
type Telemetry struct {
	// Scheduler is the engine that produced this record.
	Scheduler Scheduler
	// Workers is the number of telemetry lanes per round: the pool width
	// (1 for Run).
	Workers int
	// Rounds holds one entry per executed round, aligned with
	// Result.ActivePerRound.
	Rounds []RoundStats
	// Injected lists the adversary's fault injections (see adversary.go),
	// aggregated per round and kind, non-decreasing in Round (strictly
	// increasing per Kind). Unlike the wall-clock fields, identical across
	// schedulers for the same Config. A run with a Config.Adversary always
	// collects telemetry (the injected record is part of the run's
	// reproducibility story), even when SetTelemetry is off.
	Injected []InjectedEvent
}

// RoundStats is one round's measurement across the telemetry lanes. All
// slices have length Telemetry.Workers.
type RoundStats struct {
	// WallNS is the wall time of the whole round — compute, delivery and
	// barriers — as seen by the coordinator.
	WallNS int64
	// ComputeNS[w] is the time lane w spent in the round's compute phase
	// (calling Round methods and staging outboxes). The spread between
	// lanes is the pool's barrier imbalance.
	ComputeNS []int64
	// Staged[w] is the number of messages lane w staged this round.
	Staged []int
	// Mode[w] is the delivery strategy lane w used for this round's
	// messages.
	Mode []DeliveryMode
}

// DeliveryMode names the delivery strategy a lane chose for one round.
type DeliveryMode uint8

const (
	// DeliverSparse walks the staged slot list — O(messages).
	DeliverSparse DeliveryMode = iota
	// DeliverDense swaps or memclrs the whole plane window — the
	// vectorized sweep dense rounds take.
	DeliverDense
	// DeliverPacked is delivery over packed bit planes (every program
	// declared PayloadBits() <= 1, see PayloadBitsDeclarer): staged bits are
	// OR-ed into []uint64 words, and the dense/sparse choice — made with the
	// same shared cut-off, but against a 64×-smaller window — happens inside
	// the packed path, so the lane reports the representation rather than
	// the sub-strategy.
	DeliverPacked
)

// String returns a short human-readable name.
func (m DeliveryMode) String() string {
	switch m {
	case DeliverSparse:
		return "sparse"
	case DeliverDense:
		return "dense"
	case DeliverPacked:
		return "packed"
	default:
		return "unknown"
	}
}

var telemetryEnabled atomic.Bool

// SetTelemetry enables or disables telemetry collection for subsequent runs
// on every scheduler. Safe for concurrent use; each run latches the setting
// at start, and an enabled run returns its record as Result.Telemetry.
func SetTelemetry(on bool) { telemetryEnabled.Store(on) }

// TelemetryEnabled reports the current setting.
func TelemetryEnabled() bool { return telemetryEnabled.Load() }

// newTelemetry returns a fresh record when collection is enabled (or forced
// — runs with an adversary always collect), else nil. Engines call it once
// at run start; a nil receiver disables every record method, so the hot
// loops guard with a single pointer test.
func newTelemetry(sched Scheduler, workers int, force bool) *Telemetry {
	if !force && !telemetryEnabled.Load() {
		return nil
	}
	return &Telemetry{Scheduler: sched, Workers: workers}
}

// recordRound appends one round's stats. The slices are copied, so callers
// may reuse their scratch.
func (t *Telemetry) recordRound(wallNS int64, computeNS []int64, staged []int, mode []DeliveryMode) {
	if t == nil {
		return
	}
	t.Rounds = append(t.Rounds, RoundStats{
		WallNS:    wallNS,
		ComputeNS: append([]int64(nil), computeNS...),
		Staged:    append([]int(nil), staged...),
		Mode:      append([]DeliveryMode(nil), mode...),
	})
}

// recordInjected appends one aggregated fault-injection event.
func (t *Telemetry) recordInjected(round int, kind InjectKind, count int) {
	if t == nil {
		return
	}
	t.Injected = append(t.Injected, InjectedEvent{Round: round, Kind: kind, Count: count})
}
