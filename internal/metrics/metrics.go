// Package metrics collects the counters the evaluation tables are built
// from: IPC round trips, bytes moved between processes, lazy vs eager data
// copies (Table 12), permission flips and restarts. Syscall denials are
// recorded per process by the kernel (kernel.Process.Denials). It also
// holds the one event type every replayable log records.
package metrics

import (
	"sync"

	"freepart.dev/freepart/internal/vclock"
)

// Counters accumulates runtime events into a Snapshot. Safe for concurrent
// use.
type Counters struct {
	mu sync.Mutex
	s  Snapshot
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	IPCCalls    uint64
	BytesMoved  uint64
	LazyCopies  uint64
	EagerCopies uint64
	PermFlips   uint64
	Restarts    uint64
	APICalls    uint64
	Checkpoints uint64

	// Retries counts API calls re-issued by the supervisor after a crash,
	// timeout, or corrupted message.
	Retries uint64
	// Degraded counts partitions the circuit breaker demoted to in-host
	// direct execution — each one is a recorded security downgrade.
	Degraded uint64
	// DegradedCalls counts API calls executed in-host on behalf of a
	// degraded partition (no isolation for these).
	DegradedCalls uint64
	// InjectedFaults counts faults the chaos engine actually fired.
	InjectedFaults uint64

	// ShardDrains counts serving-layer shards drained by the executor's
	// health policy (or an explicit kill) and replaced by a fresh shard.
	ShardDrains uint64
	// Migrations counts sessions moved off a drained shard with their
	// stateful-API checkpoints materialized on the destination.
	Migrations uint64
	// FailedMigrations counts sessions (or bound state objects) that could
	// not be moved — no checkpoint to restore from, or the restore failed.
	FailedMigrations uint64

	// ScaleUps counts shards the control plane added to the serving pool.
	ScaleUps uint64
	// ScaleDowns counts shards the control plane retired from the pool
	// (shrink = drain + migrate, without a corpse).
	ScaleDowns uint64
	// Rebalances counts sessions proactively migrated off a hot shard by
	// the control plane before any failure.
	Rebalances uint64
	// Rejected counts arrivals refused at the admission-queue bound (the
	// virtual 503s); DeadlineShed counts requests dropped at dequeue after
	// outliving their admission deadline. Shed work runs nothing — no
	// checkpoint writes, no chaos draws, no clock advance.
	Rejected     uint64
	DeadlineShed uint64

	// DomainSwitches counts protection-key domain entries/exits (one WRPKRU
	// per switch; a domain-tier call charges two).
	DomainSwitches uint64
	// DomainCopies counts buffers physically copied inside one address
	// space, the cheapest copy tier: between the host and an MPK domain,
	// and sealed host objects copied for in-host execution.
	DomainCopies uint64

	// WatchdogTrips counts DoS resource-watchdog reports: domain- or
	// host-tier invocations that killed the host process or overran their
	// virtual-time budget. Detection, not containment — the invocation
	// already ran; the defense controller reacts to the report.
	WatchdogTrips uint64
	// Rebinds counts shards drained and respawned purely to move them onto
	// a changed isolation policy (defense escalation or annealing) — a
	// subset of ShardDrains.
	Rebinds uint64

	// GrayDrains counts shards drained by the latency-based suspicion
	// scorer — shards that never tripped a crash window but whose service
	// times marked them gray. A subset of ShardDrains.
	GrayDrains uint64
	// Hedges counts secondary requests launched because the primary's
	// virtual completion overran the hedge delay; HedgeWins counts hedges
	// whose completion beat the primary's, HedgeCancels counts hedges the
	// primary beat (the loser is cancelled but its work stays charged).
	Hedges       uint64
	HedgeWins    uint64
	HedgeCancels uint64
	// HedgeWork is the total virtual service time spent on hedge
	// executions — the extra-work numerator of the gray campaign's
	// bounded-overhead claim (divide by Executor.TotalWork).
	HedgeWork vclock.Duration

	// WarmHits counts session visits landing on a shard whose simulated
	// page cache still held the session's working set; ColdMisses counts
	// visits that had to re-fault it in (and paid ColdMissCost).
	// PartitionSplits counts hot-range splits performed by the
	// partition-rebalance drill.
	WarmHits        uint64
	ColdMisses      uint64
	PartitionSplits uint64
}

// New creates zeroed counters.
func New() *Counters { return &Counters{} }

// Update applies f to the counters under their lock, so the fields f bumps
// change together. f must not retain the Snapshot pointer. A func literal
// passed here does not escape, so an update allocates nothing.
func (c *Counters) Update(f func(*Snapshot)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.s)
}

// Snapshot returns a copy of the counters.
func (c *Counters) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// LazyFraction returns the share of copy operations that were lazy
// (Table 12's 95.08%).
func (s Snapshot) LazyFraction() float64 {
	total := s.LazyCopies + s.EagerCopies
	if total == 0 {
		return 0
	}
	return float64(s.LazyCopies) / float64(total)
}

// Overhead computes the relative slowdown of a protected run against an
// unprotected baseline in virtual time, as a percentage (Fig. 13's 3.68%).
func Overhead(base, protected vclock.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(protected)/float64(base) - 1)
}
