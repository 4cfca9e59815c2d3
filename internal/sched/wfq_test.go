package sched_test

import (
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
)

// entry builds a wave entry for a tenant (nil session = legacy tenant 0).
func entry(tenant, weight int, arrival vclock.Duration) core.Admission {
	if tenant == 0 && weight == 0 {
		return core.Admission{Arrival: arrival}
	}
	return core.Admission{Session: &core.Session{Tenant: tenant, Weight: weight}, Arrival: arrival}
}

// TestWFQSingleTenantKeepsArrivalOrder pins the zero-cost property WFQ
// needs to be safe as a default: a queue from one tenant is admitted in
// exactly its original order, with or without prior charging.
func TestWFQSingleTenantKeepsArrivalOrder(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	entries := []core.Admission{
		entry(0, 0, 5), entry(0, 0, 10), entry(0, 0, 15), entry(0, 0, 20),
	}
	want := []int{0, 1, 2, 3}
	if got := q.Order(0, entries); !reflect.DeepEqual(got, want) {
		t.Fatalf("single-tenant order = %v, want identity", got)
	}
	// Charging the tenant does not change a single-tenant ordering.
	q.Observe(0, entries, make([]error, len(entries)))
	if got := q.Order(0, entries); !reflect.DeepEqual(got, want) {
		t.Fatalf("single-tenant order after charging = %v, want identity", got)
	}
}

// TestWFQFavorsUnderservedTenant pins the fairness mechanism: after one
// tenant consumed a wave of service, the other tenant's requests sort
// ahead of it at equal arrivals.
func TestWFQFavorsUnderservedTenant(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	heavyWave := []core.Admission{
		entry(1, 1, 0), entry(1, 1, 0), entry(1, 1, 0), entry(1, 1, 0),
	}
	q.Observe(0, heavyWave, make([]error, len(heavyWave)))

	mixed := []core.Admission{
		entry(1, 1, 0), entry(1, 1, 0), entry(2, 1, 0),
	}
	got := q.Order(0, mixed)
	if got[0] != 2 {
		t.Fatalf("order = %v, want the underserved tenant's entry (index 2) first", got)
	}
	// State is per shard slot: on a fresh slot there is no history, so the
	// same queue interleaves the tenants round-robin within the wave
	// instead of favoring either — the heavy tenant's first entry leads
	// again.
	if got := q.Order(1, mixed); !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Fatalf("fresh slot order = %v, want [0 2 1] (within-wave interleave, no history)", got)
	}
}

// TestWFQWeightsScaleTheCharge pins weighted sharing: at weight 2 a tenant
// is charged half a quantum per served request, so after equal service its
// requests still sort ahead of an equal-arrival weight-1 tenant's.
func TestWFQWeightsScaleTheCharge(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	wave := []core.Admission{
		entry(1, 1, 0), entry(1, 1, 0), entry(2, 2, 0), entry(2, 2, 0),
	}
	q.Observe(0, wave, make([]error, len(wave)))
	// Clocks now: tenant 1 at 20, tenant 2 at 10.
	got := q.Order(0, []core.Admission{entry(1, 1, 0), entry(2, 2, 0)})
	if got[0] != 1 {
		t.Fatalf("order = %v, want the weight-2 tenant first", got)
	}
}

// TestWFQChargesServiceNotDemand pins the start-time-fair-queueing choice:
// shed requests consumed no capacity, so they advance no clock — a tenant
// whose whole wave was rejected is not pushed behind the tenant that was
// actually served.
func TestWFQChargesServiceNotDemand(t *testing.T) {
	q := &sched.WFQ{Quantum: 10}
	wave := []core.Admission{entry(1, 1, 0), entry(1, 1, 0), entry(2, 1, 0)}
	errs := []error{core.ErrOverloaded, core.ErrOverloaded, nil}
	q.Observe(0, wave, errs)

	// Tenant 1 was offered twice but served nothing; tenant 2 was served
	// once. Tenant 1 must now sort first.
	got := q.Order(0, []core.Admission{entry(2, 1, 0), entry(1, 1, 0)})
	if got[0] != 1 {
		t.Fatalf("order = %v, want the shed (unserved) tenant first", got)
	}
}

// TestWFQLeadCapBoundsHandicap pins the clamp: a tenant's finish clock may
// run at most LeadCap quanta ahead of the slowest active tenant, so a
// service-rich history cannot bank an unbounded penalty.
func TestWFQLeadCapBoundsHandicap(t *testing.T) {
	q := &sched.WFQ{Quantum: 10, LeadCap: 2}
	wave := make([]core.Admission, 0, 11)
	for i := 0; i < 10; i++ {
		wave = append(wave, entry(1, 1, 0))
	}
	wave = append(wave, entry(2, 1, 0))
	q.Observe(0, wave, make([]error, len(wave)))

	// Unclamped, tenant 1's clock would sit at 100 vs tenant 2's 10; the
	// cap pulls it to 30. Provisional keys at arrival 0: t2 runs 20, 30,
	// 40; t1's single entry lands at 40 and the stable sort keeps it ahead
	// of the third t2 entry — with the unbounded handicap it would sort
	// dead last.
	mixed := []core.Admission{entry(1, 1, 0), entry(2, 1, 0), entry(2, 1, 0), entry(2, 1, 0)}
	got := q.Order(0, mixed)
	if !reflect.DeepEqual(got, []int{1, 2, 0, 3}) {
		t.Fatalf("order = %v, want [1 2 0 3] (lead clamped to 2 quanta)", got)
	}
}
