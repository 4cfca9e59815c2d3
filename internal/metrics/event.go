package metrics

import (
	"fmt"
	"strings"

	"freepart.dev/freepart/internal/vclock"
)

// Event is one entry of a replayable log: a serving executor's failover or
// admission decision, an autoscaler's or defense controller's decision, or
// a fault a chaos engine fired. For a fixed seed each owner's log (the
// executor's per shard) is byte-equal across runs.
type Event struct {
	// Tick orders a decision or fault within its log: the reconcile round
	// a controller decided in, or a fault's 1-based position in its
	// injection log. Executor events carry none.
	Tick int
	// At is the virtual time of the event.
	At vclock.Duration
	// Shard and Gen name the shard incarnation an executor event concerns.
	Shard, Gen int
	// Kind names the event ("drain", "grow", "escalate"; a fault is
	// "site/kind", as in "kernel/crash"). Detail carries its subject or
	// reason.
	Kind, Detail string
}

// String renders the event as one log line: "tick N @t kind detail", or
// "@t shard S/gen G kind detail" for an executor event.
func (e Event) String() string {
	if e.Tick == 0 {
		return fmt.Sprintf("@%v shard %d/gen %d %s %s", e.At, e.Shard, e.Gen, e.Kind, e.Detail)
	}
	return fmt.Sprintf("tick %d @%v %s %s", e.Tick, e.At, e.Kind, e.Detail)
}

// Log is an append-only event log. It has no lock of its own: each owner
// appends to it, and hands out copies of it (slices.Clone), under the
// owner's mutex.
type Log []Event

// String renders the log one event per line: the bytes replay runs
// compare.
func (l Log) String() string {
	var b strings.Builder
	for _, e := range l {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
