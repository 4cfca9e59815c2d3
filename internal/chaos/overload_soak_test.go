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
	"freepart.dev/freepart/internal/report"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
)

// overloadRun serves a two-tenant tracking load at 4x pool capacity over a
// chaos-ridden pool — shard 1 crash-looping in its first generation, every
// other shard under background faults — with the bounded admission queue,
// deadline shedding, and WFQ ordering all active. Returns the stream
// results and the executor.
func overloadRun(t *testing.T, seed int64, streams []apps.TrackStream, pol core.AdmissionPolicy, quantum vclock.Duration) ([]apps.TrackResult, *core.Executor) {
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
	ex, err := core.NewExecutor(4, core.ChaosShards(reg, cat, crashLoopSoakConfig(), planOf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})
	srv := apps.ProvisionTracking(ex)
	// Overload arithmetic is relative to the streams' arrival stamps, which
	// start at zero: serve from reset clocks, as the drill does.
	for i := 0; i < ex.Shards(); i++ {
		ex.Shard(i).K.Clock.Reset()
	}
	ex.SetAdmission(pol)
	results := srv.ServeRampOpts(streams, apps.RampOptions{
		TolerateShed: true,
		Orderer:      &sched.WFQ{Quantum: quantum},
	})
	return results, ex
}

// TestOverloadSoak is the overload-under-faults soak: 4x offered load with
// the drill's 4:1 tenant skew (16 heavy and 4 light streams on 4 shards)
// while shard 1 crash-loops. The even tenant interleave puts one light
// stream on each round-robin slot, so one shard's failure cannot read as
// the light tenant's starvation. For every seed (a) no stream
// may fail — crashes fail over, overload sheds, and the two must compose;
// (b) the run must actually shed and actually serve, with the shed rate
// bounded away from total collapse, and the light tenant must keep getting
// service; and (c) replaying the same seed must reproduce the results, the
// per-shard failover/overload event subsequences, the injection logs, and
// the overload counters byte for byte — shedding under chaos stays inside
// the determinism envelope. Run under -race in CI (make check).
func TestOverloadSoak(t *testing.T) {
	initCost, stepCost, err := report.CalibrateTracking()
	if err != nil {
		t.Fatal(err)
	}
	const shards, heavy, light, steps, factor = 4, 16, 4, 48, 4
	perShard := vclock.Duration((heavy + light) / shards)
	streams := apps.GenTenantStreams(17, heavy, light, steps,
		stepCost*perShard/factor, initCost*(perShard+1))
	pol := core.AdmissionPolicy{QueueLimit: 3, Deadline: 2 * stepCost}
	quantum := 5 * stepCost / 4

	seeds := []int64{5, 23, 71}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			results, ex := overloadRun(t, seed, streams, pol, quantum)
			offered := (heavy + light) * steps
			served, dropped, lightServed := 0, 0, 0
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("stream %d: %v", i, r.Err)
				}
				served += r.Steps
				dropped += r.Dropped
				if streams[i].Tenant == 2 {
					lightServed += r.Steps
				}
			}
			if dropped == 0 {
				t.Fatal("4x overload shed nothing; the soak exercised nothing")
			}
			if served == 0 {
				t.Fatal("pool served nothing under overload")
			}
			// The bound is generous by design: chaos fault retries inflate
			// service times past the calibrated capacity (the effective
			// factor exceeds 4x), and the failed shard's stale backlog sheds
			// wholesale after failover. Collapse would be serving nothing.
			if rate := float64(dropped) / float64(offered); rate > 0.98 {
				t.Fatalf("shed rate %.2f: overload control collapsed instead of degrading", rate)
			}
			if lightServed == 0 {
				t.Fatal("light tenant starved under WFQ")
			}
			m := ex.Metrics().Snapshot()
			if m.ShardDrains == 0 {
				t.Fatal("crash-loop shard never drained; the soak exercised nothing")
			}
			if m.Rejected+m.DeadlineShed == 0 {
				t.Fatal("overload counters empty despite drops")
			}

			// Replay: identical results, per-shard event subsequences,
			// injection logs, and counters.
			results2, ex2 := overloadRun(t, seed, streams, pol, quantum)
			if !reflect.DeepEqual(results2, results) {
				t.Fatal("replay outputs diverged")
			}
			m2 := ex2.Metrics().Snapshot()
			if m.Rejected != m2.Rejected || m.DeadlineShed != m2.DeadlineShed {
				t.Fatalf("overload counters diverged across replays: %d+%d vs %d+%d",
					m.Rejected, m.DeadlineShed, m2.Rejected, m2.DeadlineShed)
			}
			for id := 0; id < shards; id++ {
				e1, e2 := ex.FailoverEventsFor(id), ex2.FailoverEventsFor(id)
				if !reflect.DeepEqual(e1, e2) {
					t.Fatalf("shard %d event subsequence diverged across replays:\n%v\nvs\n%v", id, e1, e2)
				}
				l1, l2 := incarnationLogs(ex, id), incarnationLogs(ex2, id)
				if !reflect.DeepEqual(l1, l2) {
					t.Fatalf("shard %d injection logs diverged across replays:\n%v\nvs\n%v", id, l1, l2)
				}
			}
		})
	}
}
