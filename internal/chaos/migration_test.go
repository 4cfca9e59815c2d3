package chaos_test

import (
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
)

// TestMigrationWriteFaultKeepsState pins the failed-adoption path of
// failover. With this seed, shard 1 crash-loops and drains, and a
// background write fault kills the adopting agent while it materializes a
// migrated session's Kalman state. Adopt must revive the agent and retry
// within the retry budget, so every stream ends at its fault-free position;
// a session left holding its old-shard handle would silently read whatever
// the replacement keeps under that id.
func TestMigrationWriteFaultKeepsState(t *testing.T) {
	const seed = -8646113359661155082
	streams := apps.GenTrackStreams(seed, 4, 250)
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()

	bex, err := core.NewExecutor(2, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bex.Close)
	baseline := apps.ProvisionTracking(bex).ServeRamp(streams, nil, nil)

	root := chaos.Scaled(seed, 0.03)
	crash := root
	crash.Mem.FaultProb = 1
	planOf := func(id, gen int) chaos.Plan {
		if id == 1 && gen == 0 {
			return crash.ForShard(id)
		}
		return root.ForShard(id)
	}
	ex, err := core.NewExecutor(2, core.ChaosShards(reg, cat, crashLoopSoakConfig(), planOf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})
	results := apps.ProvisionTracking(ex).ServeRamp(streams, nil, nil)

	if ex.Metrics().Snapshot().ShardDrains == 0 {
		t.Fatal("no shard drained; the migration path was not exercised")
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("stream %d: %v", i, r.Err)
		}
		if r != baseline[i] {
			t.Errorf("stream %d ended at %+v, fault-free run at %+v", i, r, baseline[i])
		}
	}
}
