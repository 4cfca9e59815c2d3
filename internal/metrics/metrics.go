// Package metrics collects the counters the evaluation tables are built
// from: IPC round trips, bytes moved between processes, lazy vs eager data
// copies (Table 12), permission flips and restarts. Syscall denials are
// recorded per process by the kernel (kernel.Process.Denials).
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
	PagesFlip   uint64
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
	// BatchedAdmissions counts coalesced admission batches; BatchedRequests
	// counts the invocations they carried. Requests − Batches is the number
	// of worker-pool acquisitions the batching layer amortized away.
	BatchedAdmissions uint64
	BatchedRequests   uint64

	// Rejected counts arrivals refused at the admission-queue bound (the
	// virtual 503s); DeadlineShed counts requests dropped at dequeue after
	// outliving their admission deadline. Shed work runs nothing — no
	// checkpoint writes, no chaos draws, no clock advance.
	Rejected     uint64
	DeadlineShed uint64

	// DomainSwitches counts protection-key domain entries/exits (one WRPKRU
	// per switch; a domain-tier call charges two).
	DomainSwitches uint64
	// DomainCopies/DomainCopyBytes count buffers physically moved between
	// protection domains inside one address space (the cheapest copy tier).
	DomainCopies    uint64
	DomainCopyBytes uint64
	// DomainGrants/DomainGrantBytes count cross-domain read-only page
	// grants: object payloads a domain consumed without any copy charge
	// (the MPK analogue of lazy data copy).
	DomainGrants     uint64
	DomainGrantBytes uint64

	// WatchdogTrips counts DoS resource-watchdog reports: domain- or
	// host-tier invocations that killed the host process or overran their
	// virtual-time budget. Detection, not containment — the invocation
	// already ran; the defense controller reacts to the report.
	WatchdogTrips uint64
	// Rebinds counts shards drained and respawned purely to move them onto
	// a changed isolation policy (defense escalation or annealing) — a
	// subset of ShardDrains.
	Rebinds uint64
	// Quarantined counts admissions refused because the requesting tenant
	// was quarantined by the defense controller.
	Quarantined uint64

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

// AddIPC records one RPC round trip moving n payload bytes.
func (c *Counters) AddIPC(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.IPCCalls++
	if n > 0 {
		c.s.BytesMoved += uint64(n)
	}
}

// AddLazyCopy records a direct agent-to-agent object copy of n bytes.
func (c *Counters) AddLazyCopy(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.LazyCopies++
	if n > 0 {
		c.s.BytesMoved += uint64(n)
	}
}

// AddEagerCopy records an object payload shipped through the host process.
func (c *Counters) AddEagerCopy(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.EagerCopies++
	if n > 0 {
		c.s.BytesMoved += uint64(n)
	}
}

// AddPermFlip records one mprotect covering pages pages.
func (c *Counters) AddPermFlip(pages int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.PermFlips++
	if pages > 0 {
		c.s.PagesFlip += uint64(pages)
	}
}

// AddRestart records an agent restart.
func (c *Counters) AddRestart() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Restarts++
}

// AddAPICall records one framework API dispatch.
func (c *Counters) AddAPICall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.APICalls++
}

// AddCheckpoint records one stateful-state checkpoint write.
func (c *Counters) AddCheckpoint() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Checkpoints++
}

// AddRetry records one supervised re-issue of an API call.
func (c *Counters) AddRetry() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Retries++
}

// AddDegraded records a partition demoted to in-host direct execution.
func (c *Counters) AddDegraded() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Degraded++
}

// AddDegradedCall records an API call served in-host for a degraded
// partition.
func (c *Counters) AddDegradedCall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DegradedCalls++
}

// AddInjectedFault records one fault fired by the chaos engine.
func (c *Counters) AddInjectedFault() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.InjectedFaults++
}

// AddShardDrain records one serving shard drained and replaced.
func (c *Counters) AddShardDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.ShardDrains++
}

// AddMigration records one session migrated off a drained shard.
func (c *Counters) AddMigration() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Migrations++
}

// AddFailedMigration records one migration that could not restore state.
func (c *Counters) AddFailedMigration() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.FailedMigrations++
}

// AddScaleUp records one shard added to the pool by the control plane.
func (c *Counters) AddScaleUp() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.ScaleUps++
}

// AddScaleDown records one shard retired from the pool by the control plane.
func (c *Counters) AddScaleDown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.ScaleDowns++
}

// AddRebalance records one session proactively migrated off a hot shard.
func (c *Counters) AddRebalance() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Rebalances++
}

// AddBatchedAdmission records one coalesced admission batch of n requests.
func (c *Counters) AddBatchedAdmission(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.BatchedAdmissions++
	if n > 0 {
		c.s.BatchedRequests += uint64(n)
	}
}

// AddRejected records one queue-bound rejection (virtual 503).
func (c *Counters) AddRejected() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Rejected++
}

// AddDeadlineShed records one deadline drop.
func (c *Counters) AddDeadlineShed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DeadlineShed++
}

// AddDomainSwitch records one protection-key domain entry or exit.
func (c *Counters) AddDomainSwitch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DomainSwitches++
}

// AddDomainCopy records n bytes physically copied between protection
// domains inside one address space.
func (c *Counters) AddDomainCopy(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DomainCopies++
	if n > 0 {
		c.s.DomainCopyBytes += uint64(n)
		c.s.BytesMoved += uint64(n)
	}
}

// AddDomainGrant records n bytes consumed across domains via a read-only
// page grant (no copy charged).
func (c *Counters) AddDomainGrant(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.DomainGrants++
	if n > 0 {
		c.s.DomainGrantBytes += uint64(n)
	}
}

// AddWatchdogTrip records one DoS resource-watchdog report.
func (c *Counters) AddWatchdogTrip() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.WatchdogTrips++
}

// AddRebind records one shard drained to re-bind it at a changed
// isolation policy.
func (c *Counters) AddRebind() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Rebinds++
}

// AddQuarantined records one admission refused for a quarantined tenant.
func (c *Counters) AddQuarantined() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Quarantined++
}

// AddGrayDrain records one shard drained on latency suspicion.
func (c *Counters) AddGrayDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.GrayDrains++
}

// AddHedge records one hedged secondary launched.
func (c *Counters) AddHedge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Hedges++
}

// AddHedgeWin records one hedge that completed before its primary.
func (c *Counters) AddHedgeWin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.HedgeWins++
}

// AddHedgeCancel records one hedge cancelled because the primary won.
func (c *Counters) AddHedgeCancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.HedgeCancels++
}

// AddWarmHit records one session visit placed on a shard whose simulated
// page cache already held the session's working set.
func (c *Counters) AddWarmHit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.WarmHits++
}

// AddColdMiss records one session visit that found a cold cache and paid
// the re-fault cost.
func (c *Counters) AddColdMiss() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.ColdMisses++
}

// AddPartitionSplit records one hot-range split performed by the
// partition-rebalance drill.
func (c *Counters) AddPartitionSplit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.PartitionSplits++
}

// AddHedgeWork records d of virtual service time spent on a hedge
// execution (charged whether or not the hedge won).
func (c *Counters) AddHedgeWork(d vclock.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.s.HedgeWork += d
	}
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
