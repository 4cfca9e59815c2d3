package sched

import (
	"fmt"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/partition"
	"freepart.dev/freepart/internal/vclock"
)

// KeyedPlacer is the extension a placer implements to see session keys: the
// controller's placement hook calls PlaceKeyed for sessions opened with
// SessionKeyed, so they are scored with their identity while keyless opens
// keep flowing through Place. Return an out-of-range slot to decline (the
// open falls back to Place, then round-robin).
type KeyedPlacer interface {
	Placer
	PlaceKeyed(session int, key uint64, pool []core.PlacementInfo) int
}

// PartitionAware composes partition affinity with conventional load
// scoring. For a keyed open it prefers, in order:
//
//  1. the warm shard — the slot (at the same incarnation) the key's
//     session last ran on, per the placement memory, when that slot is not
//     overloaded relative to the pool's least-loaded candidate;
//  2. the key's partition's preferred slot from the metadata, under the
//     same load guard — so a fresh key still lands where its partition
//     neighbours (and their shared working set) run;
//  3. the Base placer's pick (Locality when unset).
//
// The load guard is the same spill idea Locality uses: affinity wins until
// the affine shard carries SpillThreshold more sessions than the best
// candidate, at which point balance beats cache warmth. With a nil Meta and
// nil Memory every keyed decision declines straight to Base — and a wholly
// zero-value PartitionAware (nil Base too) declines everything, leaving the
// executor's round-robin bit-identical to a pool with no placer at all.
type PartitionAware struct {
	// Meta is the workload's partitioning descriptor (nil: no partition
	// preference).
	Meta *partition.Meta
	// Memory is the per-session placement history (nil: no warm scoring).
	Memory *partition.PlacementMemory
	// Base is the fallback placer (nil: Locality over Topo).
	Base Placer
	// Topo maps slots to sockets for the default Base and for drill cost
	// pricing.
	Topo Topology
	// SpillThreshold is how many extra sessions an affine shard may carry
	// over the pool's least-loaded candidate before affinity loses
	// (default 4 when zero — cache warmth is worth more than one hop).
	SpillThreshold int
}

// base returns the effective fallback placer.
func (pa PartitionAware) base() Placer {
	if pa.Base != nil {
		return pa.Base
	}
	return Locality{Topo: pa.Topo}
}

// spill returns the effective affinity load guard.
func (pa PartitionAware) spill() int {
	if pa.SpillThreshold <= 0 {
		return 4
	}
	return pa.SpillThreshold
}

// Socket exposes the topology mapping so the controller prices cross-socket
// moves the same way it does for Locality.
func (pa PartitionAware) Socket(id int) int { return pa.Topo.Socket(id) }

// Place implements Placer: keyless opens see no partition signal and go
// straight to the fallback.
func (pa PartitionAware) Place(session int, pool []core.PlacementInfo) int {
	if pa.Meta == nil && pa.Memory == nil && pa.Base == nil {
		return -1
	}
	return pa.base().Place(session, pool)
}

// MigrateTarget implements Placer.
func (pa PartitionAware) MigrateTarget(session, from int, pool []core.PlacementInfo) int {
	if pa.Meta == nil && pa.Memory == nil && pa.Base == nil {
		return -1
	}
	return pa.base().MigrateTarget(session, from, pool)
}

// PlaceKeyed implements KeyedPlacer.
func (pa PartitionAware) PlaceKeyed(session int, key uint64, pool []core.PlacementInfo) int {
	if pa.Meta == nil && pa.Memory == nil {
		if pa.Base == nil {
			return -1
		}
		return pa.base().Place(session, pool)
	}
	least := -1
	for _, p := range pool {
		if least < 0 || p.Sessions < least {
			least = p.Sessions
		}
	}
	affine := func(slot int, needGen int) int {
		for _, p := range pool {
			if p.ID != slot {
				continue
			}
			if needGen >= 0 && p.Gen != needGen {
				return -1 // slot was replaced; its cache died with the process
			}
			if p.Sessions > least+pa.spill() {
				return -1 // affinity loses to balance
			}
			return p.ID
		}
		return -1 // slot not in (ready) pool
	}
	if shard, gen, ok := pa.Memory.WarmShard(key); ok {
		if id := affine(shard, gen); id >= 0 {
			return id
		}
	}
	if pref := pa.Meta.Preferred(key); pref >= 0 {
		if id := affine(pref, -1); id >= 0 {
			return id
		}
	}
	return pa.base().Place(session, pool)
}

// RebalancePartitionAt is the hot-range drill: when one socket melts under
// a hot range, split the range's partition at key at (at == 0 splits at the
// key midpoint), re-prefer the upper half onto shard slot dest, migrate
// every live keyed session owned by the moved range there through the
// existing checkpoint log (cross-socket moves pay CrossSocketCost on the
// destination clock, sized by bytesPerSession), and rehome the moved keys
// in the placement memory so their next visit scores warm at dest. Returns
// the new partition's id and how many sessions moved. Purely a
// control-plane action: served results must be byte-equal with or without
// it — only where (and at what virtual cost) the work runs changes.
//
// Zipf-hot ranges concentrate their load at the low end of the interval,
// so a key-midpoint split sheds almost nothing; the operator (or the
// report's drill) computes the observed load midpoint from the traffic it
// has seen and splits there instead, the way range-sharded stores split a
// region at its data median.
func RebalancePartitionAt(ex *core.Executor, meta *partition.Meta, mem *partition.PlacementMemory,
	topo Topology, cost vclock.CostModel, hot int, at uint64, dest, bytesPerSession int) (newPart, moved int, err error) {
	if meta == nil {
		return -1, 0, fmt.Errorf("sched: rebalance needs partition metadata")
	}
	if at == 0 {
		newPart = meta.Split(hot, dest)
	} else {
		newPart = meta.SplitAt(hot, at, dest)
	}
	if newPart < 0 {
		return -1, 0, fmt.Errorf("sched: partition %d cannot split", hot)
	}
	ex.Metrics().Update(func(m *metrics.Snapshot) { m.PartitionSplits++ })
	p := meta.Parts[newPart]
	destShard := ex.Shard(dest)
	if destShard == nil {
		return newPart, 0, fmt.Errorf("sched: no shard slot %d", dest)
	}
	for _, sid := range ex.KeyedSessionsIn(p.Lo, p.Hi) {
		key, _ := ex.SessionKey(sid)
		from := -1
		if s := ex.SessionShard(sid); s != nil {
			from = s.ID
		}
		if from == dest {
			continue
		}
		var extra vclock.Duration
		if topo.Socket(from) != topo.Socket(dest) {
			extra = cost.CrossSocketCost(bytesPerSession)
		}
		if merr := ex.MigrateSession(sid, dest, extra); merr != nil {
			err = merr
			continue
		}
		moved++
		if from >= 0 {
			mem.Rehome(from, dest, destShard.Gen, map[uint64]bool{key: true})
		}
	}
	// The moved range's remaining traces (keys with history but no live
	// session to migrate) still point at the old owner; revoke them so those
	// keys' next visits follow the new preference instead of the stale trace.
	// Keys already homed at dest — the sessions just migrated — stay warm.
	mem.EvictRange(p.Lo, p.Hi, dest)
	return newPart, moved, err
}
