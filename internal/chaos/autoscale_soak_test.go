package chaos_test

import (
	"fmt"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/sched"
)

// autoscaleRun serves the load ramp with the control plane scaling a
// chaos-ridden pool: 2 shards to start, shard 1 crash-looping in its first
// generation (the replacement machine is healthy, same as the failover
// soak), every shard — including ones the controller grows mid-run — under
// background-intensity faults derived from the root seed. Returns the
// stream results, the controller (for its decision log), and the executor.
func autoscaleRun(t *testing.T, seed int64, streams []apps.TrackStream) ([]apps.TrackResult, *sched.Controller, *core.Executor) {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
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
	srv := apps.ProvisionTracking(ex)
	ctl := sched.New(ex, sched.DefaultPolicy(2, 6), nil)
	results := srv.ServeRamp(streams, ctl, ctl.Batch())
	// Idle drain-out: the service keeps reconciling after the last stream
	// finishes, which is where the pool folds back to its floor.
	for i := 0; i < 6; i++ {
		ctl.Tick()
	}
	return results, ctl, ex
}

// TestAutoscaleSoak is the control-plane soak: a load ramp that forces the
// pool to scale in both directions while shard 1 crash-loops. For every
// seed (a) outputs must be byte-equal to a fixed-pool fault-free baseline
// served with no controller attached — scaling, rebalancing, batching, and
// crash-driven failover together must not change a single result; (b) the
// run must actually grow and shrink, or the soak exercised nothing; and
// (c) replaying the same seed must reproduce the autoscaler's decision log
// byte for byte — the scaling analogue of the failover-log replay check.
// Run under -race in CI (make check).
func TestAutoscaleSoak(t *testing.T) {
	streams := apps.GenRampStreams(17, 4, 6, 64)

	// Fault-free fixed-pool baseline, no controller: the legacy serving
	// path the control plane must be invisible against.
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	bex, err := core.NewExecutor(4, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bex.Close)
	baseline := apps.ProvisionTracking(bex).ServeRamp(streams, nil, nil)
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("baseline stream %d: %v", i, r.Err)
		}
	}

	seeds := []int64{7, 31, 59}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			results, ctl, ex := autoscaleRun(t, seed, streams)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("stream %d: %v", i, r.Err)
				}
			}
			if !reflect.DeepEqual(results, baseline) {
				t.Fatalf("outputs diverged from fixed-pool fault-free baseline:\nautoscaled: %+v\nbaseline:   %+v", results, baseline)
			}
			m := ex.Metrics().Snapshot()
			if m.ScaleUps == 0 || m.ScaleDowns == 0 {
				t.Fatalf("ramp did not scale both ways (ups=%d downs=%d); the soak exercised nothing", m.ScaleUps, m.ScaleDowns)
			}
			if m.ShardDrains == 0 {
				t.Fatal("crash-loop shard never drained; the soak exercised nothing")
			}

			// Replay: identical outputs, byte-equal decision log, and
			// byte-equal injection logs per shard incarnation.
			results2, ctl2, ex2 := autoscaleRun(t, seed, streams)
			if !reflect.DeepEqual(results2, results) {
				t.Fatal("replay outputs diverged")
			}
			if log1, log2 := ctl.Events().String(), ctl2.Events().String(); log1 != log2 {
				t.Fatalf("autoscaler logs diverged across replays:\n%s\nvs\n%s", log1, log2)
			}
			for id := 0; id < ex.Shards(); id++ {
				l1, l2 := incarnationLogs(ex, id), incarnationLogs(ex2, id)
				if !reflect.DeepEqual(l1, l2) {
					t.Fatalf("shard %d injection logs diverged across replays:\n%v\nvs\n%v", id, l1, l2)
				}
			}
		})
	}
}
