package sched

import (
	"errors"
	"sort"
	"sync"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/vclock"
)

// DefaultQuantum is the WFQ service charge for a weight-1 tenant when the
// policy does not set one. Only the ratio quantum/weight matters for the
// ordering, so any positive constant works; 100µs keeps the virtual finish
// axis in the same units as the arrival stamps it is compared against.
const DefaultQuantum vclock.Duration = 100000

// defaultLeadCap bounds how many quanta one tenant's virtual finish clock
// may run ahead of the slowest active tenant's. Without the cap a tenant
// served heavily during underload banks an unbounded handicap, and the
// first moments of an overload would overcorrect in the other tenants'
// favour for just as long.
const defaultLeadCap = 8

// WFQ is the weighted-fair-queueing admission order: each tenant owns a
// per-shard-slot virtual finish clock, advanced quantum/weight for every
// request actually served, and each wave's queue is admitted in ascending
// virtual finish order. A tenant that consumed more than its weighted
// share of recent service carries a later finish clock, so its requests
// sort behind the underserved tenant's — under a bounded admission queue
// that is what converts the queue bound from "first come first served"
// into "fair share first": the chatty tenant's excess, not the light
// tenant's trickle, eats the rejections.
//
// Charging on service, not demand, is the load-bearing choice (start-time
// fair queueing): requests shed at the admission bound never consumed
// capacity, so they must not advance their tenant's clock — a
// demand-charged clock would punish the heavy tenant for work it never
// received and collapse into strict priority for the light one. The
// serving harness reports outcomes through Observe after each wave.
//
// State is keyed by (shard slot, tenant), and each slot's queue drains on
// one goroutine per wave, so orderings replay deterministically; the mutex
// only guards the map against concurrent access from different slots.
type WFQ struct {
	// Quantum is the virtual service charge for weight 1 (DefaultQuantum
	// when zero). A served request from a tenant with weight w advances
	// the tenant's finish clock by Quantum/w — integer division, so
	// orderings are exactly reproducible.
	Quantum vclock.Duration
	// LeadCap bounds a tenant's finish-clock lead over the slowest active
	// tenant, in quanta (defaultLeadCap when zero).
	LeadCap int

	mu     sync.Mutex
	finish map[slotTenant]vclock.Duration
}

// slotTenant keys one tenant's virtual finish clock on one shard slot.
type slotTenant struct{ slot, tenant int }

// quantum returns the effective service charge for weight 1.
func (q *WFQ) quantum() vclock.Duration {
	if q.Quantum > 0 {
		return q.Quantum
	}
	return DefaultQuantum
}

// tenantOf reads an entry's tenant identity (weight lifted to ≥1).
func tenantOf(en core.BatchEntry) (tenant, weight int) {
	tenant, weight = 0, 1
	if en.Session != nil {
		tenant = en.Session.Tenant
		if en.Session.Weight > 1 {
			weight = en.Session.Weight
		}
	}
	return tenant, weight
}

// Order returns the admission order for one slot's wave queue as a
// permutation of entry indices: ascending provisional virtual finish time,
// original position breaking ties (so single-tenant queues keep arrival
// order exactly). Provisional finishes start each tenant at
// max(finish clock, arrival) — an idle tenant re-enters at its arrival
// rather than banking idleness as priority — and stack quantum/weight per
// queued entry within the wave. Nothing persists here; only Observe, fed
// the wave's outcomes, advances the clocks.
func (q *WFQ) Order(slot int, entries []core.BatchEntry) []int {
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	if len(entries) < 2 {
		return idx
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	run := make(map[int]vclock.Duration) // per-tenant running key, this wave only
	fin := make([]vclock.Duration, len(entries))
	for i, en := range entries {
		tenant, weight := tenantOf(en)
		arrival := en.Arrival
		if arrival < 0 {
			arrival = 0
		}
		start, seen := run[tenant]
		if !seen {
			start = q.finish[slotTenant{slot: slot, tenant: tenant}]
		}
		if arrival > start {
			start = arrival
		}
		fin[i] = start + q.quantum()/vclock.Duration(weight)
		run[tenant] = fin[i]
	}
	sort.SliceStable(idx, func(a, b int) bool { return fin[idx[a]] < fin[idx[b]] })
	return idx
}

// Observe feeds one wave's admission outcomes back (entries and errs in
// served order): every entry that was actually admitted — anything but an
// overload shed — charges its tenant quantum/weight, and finish clocks are
// then clamped to the slowest active tenant's plus the lead cap. Shed
// entries consumed no capacity and charge nothing.
func (q *WFQ) Observe(slot int, entries []core.BatchEntry, errs []error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finish == nil {
		q.finish = make(map[slotTenant]vclock.Duration)
	}
	active := make(map[int]bool)
	for i, en := range entries {
		tenant, weight := tenantOf(en)
		active[tenant] = true
		if i < len(errs) && (errors.Is(errs[i], core.ErrOverloaded) || errors.Is(errs[i], core.ErrDeadlineExceeded)) {
			continue
		}
		key := slotTenant{slot: slot, tenant: tenant}
		arrival := en.Arrival
		if arrival < 0 {
			arrival = 0
		}
		start := q.finish[key]
		if arrival > start {
			start = arrival
		}
		q.finish[key] = start + q.quantum()/vclock.Duration(weight)
	}
	if len(active) < 2 {
		return
	}
	// Clamp leads against the slowest tenant seen this wave.
	first := true
	var floor vclock.Duration
	for tenant := range active {
		f := q.finish[slotTenant{slot: slot, tenant: tenant}]
		if first || f < floor {
			floor = f
			first = false
		}
	}
	capQ := q.LeadCap
	if capQ <= 0 {
		capQ = defaultLeadCap
	}
	lead := q.quantum() * vclock.Duration(capQ)
	for tenant := range active {
		key := slotTenant{slot: slot, tenant: tenant}
		if q.finish[key] > floor+lead {
			q.finish[key] = floor + lead
		}
	}
}
