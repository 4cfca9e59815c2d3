package apps_test

import (
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/partition"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
)

func TestGenPartitionVisitsDeterministic(t *testing.T) {
	a := apps.GenPartitionVisitsSpaced(11, 1000, 500, 1.2, 0)
	b := apps.GenPartitionVisitsSpaced(11, 1000, 500, 1.2, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must generate a byte-equal visit schedule")
	}
	c := apps.GenPartitionVisitsSpaced(12, 1000, 500, 1.2, 0)
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct seeds generated identical schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Arrival <= a[i-1].Arrival {
			t.Fatal("arrivals must be strictly increasing")
		}
	}
}

// partitionPool builds a 4-shard direct pool with the partition plane armed
// under the given placer.
func partitionPool(t *testing.T, placer sched.Placer, mem *partition.PlacementMemory, meta *partition.Meta) (*core.Executor, *apps.PartitionServer) {
	t.Helper()
	ex, err := core.NewExecutor(4, core.DirectShards(all.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	if placer != nil {
		sched.New(ex, sched.Policy{MinShards: 4, MaxShards: 4}, placer)
	}
	srv := apps.NewPartitionServer(ex, apps.PartitionConfig{
		Meta: meta, Memory: mem, Cost: vclock.Default(), Class: "visit",
	})
	return ex, srv
}

func TestPartitionServerWarmsUnderAffinity(t *testing.T) {
	visits := apps.GenPartitionVisitsSpaced(3, 64, 600, 1.3, 0)

	mem := partition.NewMemory()
	pa := sched.PartitionAware{Memory: mem, Topo: sched.Topology{ShardsPerSocket: 2}}
	ex, srv := partitionPool(t, pa, mem, nil)
	results := srv.ServeVisits(visits, 0, nil)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("visit %d: %v", i, r.Err)
		}
	}
	m := ex.Metrics().Snapshot()
	if m.WarmHits == 0 || m.ColdMisses == 0 {
		t.Fatalf("warm/cold = %d/%d; a skewed population must produce both", m.WarmHits, m.ColdMisses)
	}
	// Under affinity, returning keys land warm: hits dominate misses (a
	// miss per first sighting, hits thereafter).
	if m.WarmHits <= m.ColdMisses {
		t.Fatalf("affinity produced %d warm vs %d cold; returning keys are not landing warm", m.WarmHits, m.ColdMisses)
	}

	// Round-robin scatters the same schedule: strictly fewer warm hits.
	rrMem := partition.NewMemory()
	rrEx, rrSrv := partitionPool(t, nil, rrMem, nil)
	rrSrv.ServeVisits(visits, 0, nil)
	rr := rrEx.Metrics().Snapshot()
	if rr.WarmHits >= m.WarmHits {
		t.Fatalf("round-robin warm hits (%d) should trail partition-aware (%d)", rr.WarmHits, m.WarmHits)
	}
	// And identical results either way: placement never changes answers.
	if !reflect.DeepEqual(rrSrv.ServeVisits(visits, 0, nil)[0].Value, results[0].Value) {
		t.Fatal("served values depend on placement")
	}
}

func TestPartitionServerReplaysByteEqual(t *testing.T) {
	run := func() ([]apps.PartitionResult, []byte, []byte) {
		mem := partition.NewMemory()
		meta := partition.New(partition.Range, 4, 64)
		pa := sched.PartitionAware{Meta: meta, Memory: mem, Topo: sched.Topology{ShardsPerSocket: 2}}
		_, srv := partitionPool(t, pa, mem, meta)
		res := srv.ServeVisits(apps.GenPartitionVisitsSpaced(7, 64, 400, 1.4, 0), 0, nil)
		return res, mem.Encode(), meta.Encode()
	}
	r1, m1, t1 := run()
	r2, m2, t2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("results diverged across replays")
	}
	if string(m1) != string(m2) {
		t.Fatalf("placement memories diverged across replays:\n%s\n%s", m1, m2)
	}
	if string(t1) != string(t2) {
		t.Fatalf("partition metadata diverged across replays:\n%s\n%s", t1, t2)
	}
}

func TestPartitionServerResidentMigration(t *testing.T) {
	// A resident session pinned by the drill's migration keeps serving with
	// byte-equal values after moving shards.
	mem := partition.NewMemory()
	meta := partition.New(partition.Range, 2, 64)
	meta.Prefer(0, 0)
	meta.Prefer(1, 0) // everything piles onto shard 0: the melt
	pa := sched.PartitionAware{Meta: meta, Memory: mem, Topo: sched.Topology{ShardsPerSocket: 2}}
	ex, srv := partitionPool(t, pa, mem, meta)
	srv.Resident([]uint64{40, 50})
	visits := apps.GenPartitionVisitsSpaced(9, 64, 300, 1.3, 0)

	drilled := false
	results := srv.ServeVisits(visits, 150, func() {
		_, moved, err := sched.RebalancePartitionAt(ex, meta, mem,
			sched.Topology{ShardsPerSocket: 2}, vclock.Default(), 1, 0, 3, 8<<10)
		if err != nil {
			t.Fatalf("rebalance: %v", err)
		}
		if moved == 0 {
			t.Fatal("drill moved no resident sessions")
		}
		drilled = true
	})
	srv.FinishResident()
	if !drilled {
		t.Fatal("drill never ran")
	}
	if got := ex.Metrics().Snapshot().PartitionSplits; got != 1 {
		t.Fatalf("PartitionSplits = %d, want 1", got)
	}

	// No-drill baseline: served values byte-equal (placement-independent).
	mem2 := partition.NewMemory()
	meta2 := partition.New(partition.Range, 2, 64)
	meta2.Prefer(0, 0)
	meta2.Prefer(1, 0)
	pa2 := sched.PartitionAware{Meta: meta2, Memory: mem2, Topo: sched.Topology{ShardsPerSocket: 2}}
	_, srv2 := partitionPool(t, pa2, mem2, meta2)
	srv2.Resident([]uint64{40, 50})
	baseline := srv2.ServeVisits(visits, 0, nil)
	srv2.FinishResident()
	for i := range results {
		if results[i].Value != baseline[i].Value || results[i].Key != baseline[i].Key {
			t.Fatalf("visit %d diverged from no-drill baseline", i)
		}
	}
}
