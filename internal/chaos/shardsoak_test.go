package chaos_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/vclock"
)

// crashLoopSoakConfig is the multi-shard soak configuration: a tighter
// breaker than PR-1's default so a crash-looping partition degrades to
// in-host execution before the retry budget runs out (every call still
// completes, outputs stay baseline-identical), and a health policy that
// drains any degraded shard at its next admission — restoring full
// isolation through failover instead of serving unprotected forever.
func crashLoopSoakConfig() core.Config {
	cfg := core.ChaosConfig(nil)
	cfg.BreakerThreshold = 3
	cfg.BreakerWindow = vclock.Duration(200 * time.Millisecond)
	return cfg
}

// shardedTrackRun serves tracking streams over 4 protected shards where
// shard crashShard runs a crash-loop plan — every checked write into an
// agent space faults and kills the partition, the deterministic crash lever
// for this memory-bound stateful workload (it makes no kernel syscalls, so
// the syscall-based CrashEveryN would never fire) — and every other shard
// sees background-intensity faults derived from the root seed. Only
// generation 0 of the crash shard gets the crash-loop plan: failover models
// replacing the flaky machine with a healthy one, so the replacement serves
// the migrated sessions under background faults instead of re-entering the
// crash loop.
func shardedTrackRun(t *testing.T, seed int64, crashShard int) ([]apps.TrackResult, *core.Executor) {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	root := chaos.Scaled(seed, 0.03)
	crash := root
	crash.Mem.FaultProb = 1
	planOf := func(id, gen int) chaos.Plan {
		if id == crashShard && gen == 0 {
			return crash.ForShard(id)
		}
		return root.ForShard(id)
	}
	ex, err := core.NewExecutor(4, core.ChaosShards(reg, cat, crashLoopSoakConfig(), planOf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})
	srv := apps.ProvisionTracking(ex)
	return srv.ServeStreams(apps.GenTrackStreams(21, 8, 6)), ex
}

// incarnationLogs collects every incarnation's injection log for one shard
// id, in generation order.
func incarnationLogs(ex *core.Executor, id int) []string {
	var out []string
	for _, sh := range ex.Incarnations(id) {
		if eng := sh.Chaos(); eng != nil {
			out = append(out, eng.Events().String())
		}
	}
	return out
}

// TestMultiShardChaosSoak is the sharded soak: several seeds, 4 shards,
// shard 2 forced into a crash loop. For every seed (a) outputs must be
// identical to the fault-free baseline — sessions on the dying shard
// migrate with exact state; (b) replaying the same seed must reproduce
// byte-equal per-shard injection logs across every shard incarnation. Run
// under -race in CI (make check).
func TestMultiShardChaosSoak(t *testing.T) {
	const crashShard = 2

	// Fault-free baseline: same streams, no chaos, no kills.
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	bex, err := core.NewExecutor(4, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bex.Close)
	baseline := apps.ProvisionTracking(bex).ServeStreams(apps.GenTrackStreams(21, 8, 6))
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("baseline stream %d: %v", i, r.Err)
		}
	}

	seeds := []int64{5, 23, 71}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			results, ex := shardedTrackRun(t, seed, crashShard)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("stream %d: %v", i, r.Err)
				}
			}
			if !reflect.DeepEqual(results, baseline) {
				t.Fatalf("outputs diverged from fault-free baseline:\nchaos:    %+v\nbaseline: %+v", results, baseline)
			}
			m := ex.Metrics().Snapshot()
			if m.ShardDrains == 0 {
				t.Fatal("crash-loop shard never drained; the soak exercised nothing")
			}

			// Replay: byte-equal injection logs per shard, per incarnation.
			results2, ex2 := shardedTrackRun(t, seed, crashShard)
			if !reflect.DeepEqual(results2, results) {
				t.Fatal("replay outputs diverged")
			}
			for id := 0; id < 4; id++ {
				l1, l2 := incarnationLogs(ex, id), incarnationLogs(ex2, id)
				if !reflect.DeepEqual(l1, l2) {
					t.Fatalf("shard %d injection logs diverged across replays:\n%v\nvs\n%v", id, l1, l2)
				}
			}
			if ev1, ev2 := ex.EventsFor(crashShard), ex2.EventsFor(crashShard); !reflect.DeepEqual(ev1, ev2) {
				t.Fatalf("failover event logs diverged:\n%v\nvs\n%v", ev1, ev2)
			}
		})
	}
}

// TestForShardDerivation pins the per-shard plan split: shard 0 is the
// root plan unchanged (the n=1 byte-compatibility guarantee), other shards
// get stable, pairwise-distinct derived seeds.
func TestForShardDerivation(t *testing.T) {
	root := chaos.Scaled(42, 0.05)
	if got := root.ForShard(0); !reflect.DeepEqual(got, root) {
		t.Fatalf("ForShard(0) changed the plan: %+v", got)
	}
	seen := map[int64]int{root.Seed: 0}
	for id := 1; id <= 8; id++ {
		p := root.ForShard(id)
		if p.Seed == root.Seed {
			t.Fatalf("shard %d kept the root seed", id)
		}
		if prev, dup := seen[p.Seed]; dup {
			t.Fatalf("shards %d and %d derived the same seed", prev, id)
		}
		seen[p.Seed] = id
		if p.Kernel != root.Kernel || p.IPC != root.IPC || p.Mem != root.Mem {
			t.Fatalf("shard %d derivation changed probabilities", id)
		}
		if again := root.ForShard(id); again.Seed != p.Seed {
			t.Fatalf("shard %d derivation unstable", id)
		}
	}
	if chaos.DerivedSeed(1, 2) == chaos.DerivedSeed(2, 1) {
		t.Fatal("seed/shard mixing is symmetric; streams would collide")
	}
}

// TestEngineBindPanicsOnSecondClock pins the sharing guard: one engine
// must not serve two kernel clocks. Rebinding the same clock is fine.
func TestEngineBindPanicsOnSecondClock(t *testing.T) {
	eng := chaos.New(chaos.Scaled(1, 0.05))
	c1, c2 := vclock.New(), vclock.New()
	eng.Bind(c1, nil)
	eng.Bind(c1, nil) // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("binding a second clock must panic")
		}
	}()
	eng.Bind(c2, nil)
}
