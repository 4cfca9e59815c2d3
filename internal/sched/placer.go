package sched

import "freepart.dev/freepart/internal/core"

// Placer is the pluggable session-placement cost model. Place picks the
// shard a new session opens on; MigrateTarget picks where an existing
// session lands when the controller moves it (rebalance or shrink —
// `from` is the shard it is leaving, or -1 when that shard is already out
// of the pool). Both must be pure functions of their arguments so
// placement decisions replay deterministically; return any out-of-range
// shard id to decline (the caller falls back to least-loaded).
type Placer interface {
	Place(session int, pool []core.PlacementInfo) int
	MigrateTarget(session, from int, pool []core.PlacementInfo) int
}

// RoundRobin places session i on pool slot i mod len(pool) — exactly the
// executor's built-in default, exported so a controller configured with an
// explicit placer can still reproduce the fixed-pool layer bit-for-bit.
type RoundRobin struct{}

// Place implements Placer.
func (RoundRobin) Place(session int, pool []core.PlacementInfo) int {
	if len(pool) == 0 {
		return -1
	}
	return pool[session%len(pool)].ID
}

// MigrateTarget implements Placer: least-loaded, skipping the source.
func (RoundRobin) MigrateTarget(session, from int, pool []core.PlacementInfo) int {
	return LeastLoaded{}.MigrateTarget(session, from, pool)
}

// LeastLoaded places on the shard with the fewest pinned sessions, lowest
// slot id breaking ties — the greedy balance heuristic.
type LeastLoaded struct{}

// Place implements Placer.
func (LeastLoaded) Place(session int, pool []core.PlacementInfo) int {
	return pickLeast(pool, -1)
}

// MigrateTarget implements Placer.
func (LeastLoaded) MigrateTarget(session, from int, pool []core.PlacementInfo) int {
	return pickLeast(pool, from)
}

// pickLeast returns the least-populated shard, excluding one slot.
func pickLeast(pool []core.PlacementInfo, exclude int) int {
	best := -1
	for _, p := range pool {
		if p.ID == exclude {
			continue
		}
		if best < 0 {
			best = p.ID
			continue
		}
		var cur core.PlacementInfo
		for _, q := range pool {
			if q.ID == best {
				cur = q
				break
			}
		}
		if p.Sessions < cur.Sessions || (p.Sessions == cur.Sessions && p.ID < cur.ID) {
			best = p.ID
		}
	}
	return best
}

// Topology maps shard slots onto simulated sockets: shard id / ShardsPerSocket
// is the socket. Shards are numbered densely, so growth fills one socket
// before spilling to the next — the same layout a NUMA-aware deployment
// would pin processes in.
type Topology struct {
	// ShardsPerSocket is how many shards share one socket's local memory.
	ShardsPerSocket int
}

// Socket returns the socket homing shard id.
func (t Topology) Socket(id int) int {
	if t.ShardsPerSocket <= 0 {
		return 0
	}
	return id / t.ShardsPerSocket
}

// Locality is the NUMA-aware placer: it keeps each session's state on its
// home socket (session id hashed across sockets) as long as the local
// shards are not overloaded, spilling cross-socket only when every local
// shard already carries SpillThreshold more sessions than the best remote
// candidate would. Cross-socket migrations then pay
// CostModel.CrossSocketCost on the destination clock, so the placement
// trade — locality versus balance — shows up in the latency tables.
type Locality struct {
	Topo Topology
	// SpillThreshold is how many extra sessions a home-socket shard may
	// hold before a remote shard wins (default 2 when zero).
	SpillThreshold int
}

// Socket exposes the topology mapping (the controller uses it to price
// cross-socket moves).
func (l Locality) Socket(id int) int { return l.Topo.Socket(id) }

// spill returns the effective spill threshold.
func (l Locality) spill() int {
	if l.SpillThreshold <= 0 {
		return 2
	}
	return l.SpillThreshold
}

// home returns the session's home socket given the sockets present in the
// pool.
func (l Locality) home(session int, pool []core.PlacementInfo) int {
	sockets := 0
	for _, p := range pool {
		if s := l.Topo.Socket(p.ID); s+1 > sockets {
			sockets = s + 1
		}
	}
	if sockets <= 1 {
		return 0
	}
	return session % sockets
}

// choose scores the pool: fewest sessions wins, but off-home shards are
// handicapped by the spill threshold. Ties break by lowest socket id first,
// then lowest slot id — explicitly, so equal-scoring candidates on
// different sockets resolve the same way regardless of how the pool
// snapshot happens to be ordered, and placers composing on top of Locality
// (PartitionAware) inherit a deterministic fallback.
func (l Locality) choose(session int, pool []core.PlacementInfo, exclude int) int {
	home := l.home(session, pool)
	best, bestScore := -1, 0
	for _, p := range pool {
		if p.ID == exclude {
			continue
		}
		score := p.Sessions
		if l.Topo.Socket(p.ID) != home {
			score += l.spill()
		}
		tieWins := best >= 0 && score == bestScore &&
			(l.Topo.Socket(p.ID) < l.Topo.Socket(best) ||
				(l.Topo.Socket(p.ID) == l.Topo.Socket(best) && p.ID < best))
		if best < 0 || score < bestScore || tieWins {
			best, bestScore = p.ID, score
		}
	}
	return best
}

// Place implements Placer.
func (l Locality) Place(session int, pool []core.PlacementInfo) int {
	return l.choose(session, pool, -1)
}

// MigrateTarget implements Placer.
func (l Locality) MigrateTarget(session, from int, pool []core.PlacementInfo) int {
	return l.choose(session, pool, from)
}
