// Package sched is the deterministic autoscaling control plane of the
// serving layer: a reconcile loop over core.Executor that grows and
// shrinks the shard pool from queue-wait signals, proactively rebalances
// sessions off hot shards through the portable checkpoint log, and places
// sessions with a pluggable cost model. It also holds the weighted-fair
// admission order (WFQ) a serving loop applies to each shard's queue.
//
// The design rule — inherited from the paper's partitioning argument and
// its successors (ERIM, hardware-capability compartmentalization): policy
// machinery must stay off the data hot path. The controller therefore runs
// only at reconcile points ("ticks") the serving loop invokes at barriers,
// when every in-flight invocation has drained. At a barrier the pool's
// state is a pure function of the work it ran, so every decision — and the
// event log recording it — is byte-reproducible across runs, chaos
// included, exactly like the executor's log one layer down. Between ticks
// the control plane costs the data path nothing: an executor with no
// controller attached behaves bit-identically to the fixed-pool serving
// layer.
package sched

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// Policy configures the reconcile loop. The zero value disables every
// action; DefaultPolicy returns the calibrated serving policy.
type Policy struct {
	// MinShards and MaxShards bound the pool. Shrink never goes below Min,
	// grow never above Max.
	MinShards int
	MaxShards int
	// GrowWait triggers a scale-up: when the pool's mean admission-queue
	// wait over the last window exceeds it, one shard is added.
	GrowWait vclock.Duration
	// ShrinkWait triggers a scale-in: when the pool's mean wait over the
	// last window falls below it, the highest slot is retired. Keep it
	// well under GrowWait — the gap is the hysteresis band that stops the
	// pool oscillating.
	ShrinkWait vclock.Duration
	// TargetSessions is the utilization signal: the session count one
	// shard is sized to carry. The pool grows when live sessions exceed
	// TargetSessions × pool, and shrinks when a one-smaller pool would
	// still have a session of slack. Queue wait is a trailing signal — by
	// the time waits breach GrowWait the tail is already damaged, and a
	// shard boots too slowly to repair it — so utilization is what lets
	// the pool scale ahead of the ramp. 0 disables utilization scaling
	// and leaves the wait thresholds in sole control.
	TargetSessions int
	// Cooldown is the minimum virtual time between scale operations,
	// measured on the run's critical path.
	Cooldown vclock.Duration
	// RebalanceRatio moves sessions off a hot shard before the health
	// tracker would ever see it: when one shard's window mean wait exceeds
	// RebalanceRatio times the pool mean (and the pool is not mid-scale),
	// its oldest sessions migrate to the placer's choice of cold shard.
	// 0 disables proactive rebalancing.
	RebalanceRatio float64
	// MaxMovesPerTick caps rebalance migrations per reconcile (default 1
	// when RebalanceRatio is set) so the controller converges gently.
	MaxMovesPerTick int
	// ReadyWindow is the readiness probe: a shard whose clock runs more
	// than this ahead of the pool's serving frontier (the last reconcile's
	// "now") is still booting and is excluded from placement and migration
	// targets until it catches up. Anything routed to a not-yet-ready
	// shard would eat the remaining boot lag as queue wait, so keep the
	// window well under a shard boot; it only bounds the small early-
	// admission penalty paid when a target is let in slightly before its
	// clock crosses the frontier. 0 disables the filter.
	ReadyWindow vclock.Duration
	// Cost prices cross-socket moves; zero value means no NUMA penalty.
	Cost vclock.CostModel
}

// DefaultPolicy returns the calibrated control policy for a pool bounded
// by [min, max]. The wait thresholds sit either side of one IPC round
// trip's worth of queueing; the cooldown spans a few serving waves.
func DefaultPolicy(min, max int) Policy {
	return Policy{
		MinShards:       min,
		MaxShards:       max,
		GrowWait:        8000,   // 8µs mean wait: requests are stacking up
		ShrinkWait:      1000,   // 1µs: the pool is coasting
		TargetSessions:  2,      // size for two clients per shard
		Cooldown:        150000, // 150µs between scale ops
		RebalanceRatio:  3,
		MaxMovesPerTick: 2,
		ReadyWindow:     40000, // 40µs: above inter-shard skew, far below a boot
		Cost:            vclock.Default(),
	}
}

// Controller is the reconcile loop. Construct with New, then call Tick at
// serving barriers; every decision lands in the event log and is executed
// through the executor's scale/migrate hooks. Events are appended only at
// reconcile points, so for a fixed workload and seed the log is byte-equal
// across runs. Kinds: suspect, grow, shrink and rebalance.
type Controller struct {
	ex     *core.Executor
	pol    Policy
	placer Placer

	// lastNow is the serving frontier of the most recent tick, readable
	// without c.mu because the placement hook runs inside the executor's
	// admission path (its own locks held), never under the controller's.
	lastNow atomic.Int64

	mu         sync.Mutex
	tick       int
	lastScale  vclock.Duration
	scaledOnce bool
	prev       map[int]core.ShardLoad
	events     metrics.Log
	peak       int
	// boot is the measured boot cost of the last grown shard (its clock
	// minus the decision time) — the controller's own calibration of how
	// far ahead it must scale.
	boot vclock.Duration
	// hist is the recent (frontier, live sessions) trajectory, trimmed to
	// one boot's worth, from which the ramp rate is estimated.
	hist []histPoint
}

// histPoint is one tick's (frontier, live sessions) observation.
type histPoint struct {
	at       vclock.Duration
	sessions int
}

// New builds a controller over ex and takes over session placement: opens
// route through placer (LeastLoaded when nil), always restricted to shards
// that pass the readiness filter. A keyed open goes to PlaceKeyed first
// when the placer is a KeyedPlacer, and to Place when that declines.
// Executors with no controller attached keep the round-robin default and
// are untouched by any of this — the zero-cost-when-off property the
// serving benchmarks pin down.
func New(ex *core.Executor, pol Policy, placer Placer) *Controller {
	if pol.MaxMovesPerTick <= 0 {
		pol.MaxMovesPerTick = 1
	}
	c := &Controller{ex: ex, pol: pol, placer: placer, prev: make(map[int]core.ShardLoad), peak: ex.Shards()}
	p := placer
	if p == nil {
		p = LeastLoaded{}
	}
	kp, _ := p.(KeyedPlacer)
	ex.SetPlacement(func(session int, key uint64, keyed bool, pool []core.PlacementInfo) int {
		slots := len(pool)
		pool = c.readyPool(pool)
		if keyed && kp != nil {
			if slot := kp.PlaceKeyed(session, key, pool); slot >= 0 && slot < slots {
				return slot
			}
		}
		return p.Place(session, pool)
	})
	return c
}

// readyPool drops shards still booting: any whose clock runs more than
// ReadyWindow ahead of the serving frontier established at the last
// reconcile. A freshly grown shard's clock sits a full boot cost in the
// future, so routing a session there means the session eats that lag as
// queue wait — the filter is the readiness probe a real balancer would
// run. Before the first tick (frontier unknown) and whenever the filter
// would empty the pool, the whole pool passes.
func (c *Controller) readyPool(pool []core.PlacementInfo) []core.PlacementInfo {
	window := c.pol.ReadyWindow
	now := vclock.Duration(c.lastNow.Load())
	if len(pool) <= 1 || window <= 0 || now <= 0 {
		return pool
	}
	out := make([]core.PlacementInfo, 0, len(pool))
	for _, p := range pool {
		if p.Clock <= now+window {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return pool
	}
	return out
}

// Events returns a copy of the decision log.
func (c *Controller) Events() metrics.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.events)
}

// PeakShards reports the largest pool size observed at any reconcile point.
func (c *Controller) PeakShards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// record appends one decision.
func (c *Controller) record(at vclock.Duration, kind, detail string) {
	c.events = append(c.events, metrics.Event{Tick: c.tick, At: at, Kind: kind, Detail: detail})
}

// window is one slot's load delta since the previous tick.
type window struct {
	id       int
	sessions int
	waitSum  vclock.Duration
	waits    uint64
	jobs     uint64
}

// mean returns the window's mean admission wait (0 with no samples).
func (w window) mean() vclock.Duration {
	if w.waits == 0 {
		return 0
	}
	return w.waitSum / vclock.Duration(w.waits)
}

// Tick runs one reconcile round. Call it only at barriers — when no
// invocation is in flight — so the signals it reads, and therefore the
// decision it takes, are deterministic. Priority order: scale beats
// rebalance (a pool changing size this tick should settle before sessions
// shuffle).
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++

	loads := c.ex.ShardLoads()
	wins := make([]window, len(loads))
	var totSum vclock.Duration
	var totN uint64
	prev := c.prev
	c.prev = make(map[int]core.ShardLoad, len(loads))
	// "Now" is the frontier of served work: the max clock among shards
	// that completed a job this window. The raw critical path would do the
	// wrong thing here — a freshly grown shard's clock sits a full boot
	// cost in the future, and anchoring decisions (join times, cooldown)
	// to it would snowball each successive grow further ahead and freeze
	// the cooldown gate once the pool goes idle.
	var now vclock.Duration
	for i, l := range loads {
		p := prev[l.ID]
		wins[i] = window{id: l.ID, sessions: l.Sessions, waitSum: l.WaitSum - p.WaitSum, waits: l.Waits - p.Waits, jobs: l.Jobs - p.Jobs}
		totSum += wins[i].waitSum
		totN += wins[i].waits
		if wins[i].jobs > 0 && l.Clock > now {
			now = l.Clock
		}
		c.prev[l.ID] = l
	}
	if now == 0 {
		now = c.ex.CriticalPath()
	}
	c.lastNow.Store(int64(now))
	// Gray-failure visibility: shards the executor's suspicion scorer holds
	// suspect this barrier land in the sched event log, so the control
	// plane's replayable history records which shards were under suspicion
	// at each reconcile point.
	for _, l := range loads {
		if l.Suspect {
			c.record(now, "suspect", fmt.Sprintf("shard %d suspicion %.1f", l.ID, l.Suspicion))
		}
	}
	poolMean := vclock.Duration(0)
	if totN > 0 {
		poolMean = totSum / vclock.Duration(totN)
	}
	sessions := 0
	for i := range wins {
		sessions += wins[i].sessions
	}
	pool := len(loads)
	canScale := !c.scaledOnce || now-c.lastScale >= c.pol.Cooldown

	// Scale signals: utilization (sessions vs the per-shard target) leads,
	// queue wait trails. Growing on either catches both a foreseen ramp
	// and an unforeseen slowdown; shrinking only on utilization slack
	// while waits are calm keeps the pool from flapping.
	t := c.pol.TargetSessions
	proj := c.projected(now, sessions)
	// Grow at the target, not past it: a pool running exactly full has no
	// slot for the next join, which would eat a whole shard boot as queue
	// wait. One spare slot is the headroom that absorbs a join while the
	// replacement capacity boots.
	growWant := poolMean > c.pol.GrowWait || (t > 0 && proj >= t*pool)
	shrinkWant := poolMean < c.pol.ShrinkWait
	if t > 0 {
		// A full target's worth of slack — plus one session — beyond the
		// one-smaller pool is the hysteresis band: plateau load wobbles by
		// a session as joins and departures interleave, and a band any
		// narrower lets that wobble flap the pool (grow, boot a shard for
		// nothing, shrink it, repeat). Judged on the same projection as
		// grow, so mid-ramp the two signals can never disagree.
		// A fully idle pool always shrinks — the band would otherwise pin
		// small pools (t·(pool−1) − t − 1 goes negative) above the floor.
		shrinkWant = (proj <= t*(pool-1)-t-1 || proj == 0) && poolMean <= c.pol.GrowWait
	}

	switch {
	case growWant && pool < c.pol.MaxShards && canScale:
		sh, err := c.ex.Grow(now)
		if err != nil {
			c.record(now, "grow", "failed: "+err.Error())
			break
		}
		// The new shard's clock lands at now + its boot cost; the gap is
		// the controller's live calibration of how far ahead it must scale.
		if b := sh.K.Clock.Now() - now; b > 0 {
			c.boot = b
		}
		c.lastScale, c.scaledOnce = now, true
		c.record(now, "grow", fmt.Sprintf("pool %d->%d sessions %d mean-wait %v", pool, pool+1, sessions, poolMean))
	case shrinkWant && pool > c.pol.MinShards && canScale:
		victim, err := c.ex.Shrink(c.shrinkPlan())
		if err != nil {
			c.record(now, "shrink", "failed: "+err.Error())
			break
		}
		c.lastScale, c.scaledOnce = now, true
		c.record(now, "shrink", fmt.Sprintf("pool %d->%d shard %d sessions %d mean-wait %v", pool, pool-1, victim.ID, sessions, poolMean))
	default:
		c.rebalance(now, wins, poolMean)
	}
	if n := c.ex.Shards(); n > c.peak {
		c.peak = n
	}
}

// projected estimates the live session count one shard-boot from now, from
// the ramp rate over the trailing boot-length window. A shard ordered at
// the moment utilization crosses the target arrives a full boot late —
// every session that joined in between stacks onto the old pool as queue
// wait — so the grow signal must fire against where the ramp will be when
// the shard becomes ready, not where it is. Before the first grow the boot
// cost is unknown (and the first grow is the unhurried baseline one), so
// the projection is the identity; afterwards it is self-calibrating from
// the measured boot. Only upward ramps project — the decline side is the
// shrink path's job, and it stays deliberately trailing.
func (c *Controller) projected(now vclock.Duration, sessions int) int {
	c.hist = append(c.hist, histPoint{at: now, sessions: sessions})
	if c.boot <= 0 {
		return sessions
	}
	i := 0
	for i < len(c.hist)-1 && c.hist[i].at < now-c.boot {
		i++
	}
	c.hist = c.hist[i:]
	then := c.hist[0]
	if now <= then.at || sessions <= then.sessions {
		return sessions
	}
	lead := int64(sessions-then.sessions) * int64(c.boot) / int64(now-then.at)
	return sessions + int(lead)
}

// rebalance migrates up to MaxMovesPerTick sessions per tick, two causes
// in priority order: session-count imbalance — a freshly grown (or newly
// caught-up) shard sits idle while an old shard carries the pool, so
// sessions spread until counts are within one — and queue-wait skew — a
// shard whose window mean wait dominates the pool mean by RebalanceRatio
// (a degrading shard under chaos) sheds a session even when counts look
// even.
func (c *Controller) rebalance(now vclock.Duration, wins []window, poolMean vclock.Duration) {
	if c.pol.RebalanceRatio <= 0 {
		return
	}
	for m := 0; m < c.pol.MaxMovesPerTick; m++ {
		pool := poolInfo(c.ex.ShardLoads())
		src, reason := c.pickSource(pool, wins, poolMean)
		if src < 0 {
			break
		}
		candidates := c.ex.PinnedSessions(src)
		if len(candidates) == 0 {
			break
		}
		sid := candidates[0]
		dest := c.migrateTarget(sid, src, pool)
		if dest < 0 || dest == src {
			break
		}
		// The placer chooses where the session fits best, which is not
		// always where the imbalance shrinks: a locality placer will keep
		// a session on its home socket even when the idle shard is remote.
		// A move that doesn't strictly improve the balance would ping-pong
		// forever, so require it — and stop for the tick when the placer
		// won't offer one (the residual imbalance is the locality trade,
		// not a bug).
		if !improves(pool, src, dest) {
			break
		}
		extra := c.moveCost(sid, src, dest)
		if err := c.ex.MigrateSession(sid, dest, extra); err != nil {
			c.record(now, "rebalance", fmt.Sprintf("session %d failed: %v", sid, err))
			break
		}
		c.record(now, "rebalance", fmt.Sprintf("session %d shard %d->%d (%s)", sid, src, dest, reason))
	}
}

// improves reports whether moving one session src→dest strictly narrows
// the session-count gap between the two shards.
func improves(pool []core.PlacementInfo, src, dest int) bool {
	var s, d int
	for _, p := range pool {
		switch p.ID {
		case src:
			s = p.Sessions
		case dest:
			d = p.Sessions
		}
	}
	return d+1 < s
}

// pickSource finds a shard worth shedding a session from: first by count
// imbalance against the emptiest ready shard, then by queue-wait skew.
// Returns -1 when the pool is balanced.
func (c *Controller) pickSource(pool []core.PlacementInfo, wins []window, poolMean vclock.Duration) (int, string) {
	ready := c.readyPool(pool)
	if len(ready) < 2 && len(pool) < 2 {
		return -1, ""
	}
	// Count imbalance: fullest shard vs emptiest ready shard.
	full, empty := pool[0], ready[0]
	for _, p := range pool {
		if p.Sessions > full.Sessions || (p.Sessions == full.Sessions && p.ID < full.ID) {
			full = p
		}
	}
	for _, p := range ready {
		if p.Sessions < empty.Sessions || (p.Sessions == empty.Sessions && p.ID < empty.ID) {
			empty = p
		}
	}
	if full.ID != empty.ID && full.Sessions >= empty.Sessions+2 {
		return full.ID, fmt.Sprintf("imbalance %d vs %d", full.Sessions, empty.Sessions)
	}
	// Wait skew: a shard whose window mean dominates the pool mean.
	if poolMean > 0 {
		hot := 0
		for i := range wins {
			if wins[i].mean() > wins[hot].mean() {
				hot = i
			}
		}
		hotMean := wins[hot].mean()
		if float64(hotMean) >= c.pol.RebalanceRatio*float64(poolMean) &&
			hotMean > c.pol.GrowWait && wins[hot].sessions > 1 {
			return wins[hot].id, fmt.Sprintf("hot-wait %v pool-wait %v", hotMean, poolMean)
		}
	}
	return -1, ""
}

// shrinkPlan adapts the placer into the executor's per-session shrink
// destination chooser, pricing cross-socket moves.
func (c *Controller) shrinkPlan() func(session int, pool []core.PlacementInfo) core.MigrationPlan {
	return func(session int, pool []core.PlacementInfo) core.MigrationPlan {
		from := -1 // the victim is already out of the pool snapshot
		dest := c.migrateTarget(session, from, pool)
		if dest < 0 {
			return core.MigrationPlan{Dest: -1}
		}
		return core.MigrationPlan{Dest: dest, Extra: c.moveCost(session, from, dest)}
	}
}

// migrateTarget picks a destination via the placer (least-loaded
// fallback), never onto a still-booting shard.
func (c *Controller) migrateTarget(sid, from int, pool []core.PlacementInfo) int {
	pool = c.readyPool(pool)
	if len(pool) == 0 {
		return -1
	}
	if c.placer != nil {
		return c.placer.MigrateTarget(sid, from, pool)
	}
	return LeastLoaded{}.MigrateTarget(sid, from, pool)
}

// moveCost prices one session migration: zero within a socket, one
// interconnect hop plus remote bandwidth over the session's live
// checkpoint bytes across sockets. Placers without a topology see every
// shard on one socket, so every move is free.
func (c *Controller) moveCost(sid, from, dest int) vclock.Duration {
	topo, ok := c.placer.(interface{ Socket(shard int) int })
	if !ok || from < 0 || topo.Socket(from) == topo.Socket(dest) {
		return 0
	}
	return c.pol.Cost.CrossSocketCost(c.ex.CheckpointLog().SessionBytes(sid))
}

// poolInfo projects load signals onto placement facts.
func poolInfo(loads []core.ShardLoad) []core.PlacementInfo {
	out := make([]core.PlacementInfo, len(loads))
	for i, l := range loads {
		out[i] = core.PlacementInfo{ID: l.ID, Sessions: l.Sessions, Clock: l.Clock}
	}
	return out
}
