package sim

import (
	"fmt"
	"sync/atomic"
)

// The "poisoned Outbox" debug check guards the footgun documented on
// NodeCtx.Outbox: the engine never clears the scratch between rounds, so a
// program that returns Outbox without setting every port re-sends whatever
// the slot held the round before — a bug that is silent, seed-dependent and
// scheduler-independent, hence miserable to find from outputs alone. With
// the check enabled, every engine fills each node's Outbox window with a
// sentinel payload before calling Round and fails the run with an
// OutboxPortError the moment a returned outbox still carries the sentinel.
//
// The fill costs one write per half-edge per round, so the check is off by
// default and switched on by the test suites (and available to downstream
// users chasing a stale-port bug).

// outboxPoison is the sentinel payload; it is recognized by backing-array
// identity, so no legitimate program-built Message can collide with it.
var outboxPoison = Message{0x5a}

var debugOutboxCheck atomic.Bool

// SetDebugOutboxCheck enables or disables the poisoned-Outbox check for
// subsequent runs on every scheduler. Safe for concurrent use; each run
// latches the setting at start.
//
// It is the one package-wide switch sim keeps, because it is a safety check
// rather than a run setting: it never changes a correct program's Result.
// Being global is the point: the TestMain of sim, check, coloring, decomp,
// mis and protocols switches it on, so every wrapper a test reaches runs
// checked without a flag threaded through its config.
func SetDebugOutboxCheck(on bool) { debugOutboxCheck.Store(on) }

func isPoison(m Message) bool { return len(m) == 1 && &m[0] == &outboxPoison[0] }

// poisonWindow fills one node's Outbox window with the sentinel.
func poisonWindow(win []Message) {
	for i := range win {
		win[i] = outboxPoison
	}
}

// OutboxPortError reports a node that returned NodeCtx.Outbox while leaving
// a port unset that round — the stale-slot footgun the poisoned-Outbox
// check exists to catch. Only surfaced when the check is enabled.
type OutboxPortError struct {
	Node  int
	Round int
	Port  int
}

func (e *OutboxPortError) Error() string {
	return fmt.Sprintf("sim: node %d returned NodeCtx.Outbox with port %d unset in round %d (a program using Outbox must set or nil every port, every round)", e.Node, e.Port, e.Round)
}
