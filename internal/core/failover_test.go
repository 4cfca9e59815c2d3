package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/vclock"
)

// trackRun serves deterministic tracking streams on n protected shards,
// optionally scheduling a shard kill, and returns results plus the executor
// for post-mortem inspection. bootAndEnd reports shard 0's clock before and
// after serving, so callers can aim a kill inside the serving window.
func trackRun(t *testing.T, n, streams, steps int, kill func(*core.Executor)) ([]apps.TrackResult, *core.Executor, [2]vclock.Duration) {
	t.Helper()
	ex := newExecutor(t, n, core.Default())
	ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1})
	if kill != nil {
		kill(ex)
	}
	boot := ex.Shard(0).Clock().Now()
	srv := apps.ProvisionTracking(ex)
	results := srv.ServeStreams(apps.GenTrackStreams(9, streams, steps))
	return results, ex, [2]vclock.Duration{boot, ex.Shard(0).Clock().Now()}
}

// requireCleanResults fails on any per-stream error.
func requireCleanResults(t *testing.T, results []apps.TrackResult) {
	t.Helper()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("stream %d: %v", i, r.Err)
		}
	}
}

// TestFailoverMigratesTrackingState is the tentpole's end-to-end check: a
// shard serving stateful sessions is killed mid-stream, its sessions
// migrate to a replacement with their Kalman state materialized from the
// portable checkpoint log, and every final filtered position is identical
// to a fault-free run — the migrated state was exact, not approximate.
func TestFailoverMigratesTrackingState(t *testing.T) {
	const shards, streams, steps = 2, 6, 10

	baseline, _, window := trackRun(t, shards, streams, steps, nil)
	requireCleanResults(t, baseline)

	// Aim the kill at the middle of shard 0's serving window (boot and
	// serving costs are deterministic, so the baseline's window is also the
	// kill run's window up to the kill itself).
	killAt := (window[0] + window[1]) / 2
	killed, ex, _ := trackRun(t, shards, streams, steps, func(e *core.Executor) {
		e.ScheduleKill(0, killAt)
	})
	requireCleanResults(t, killed)

	if !reflect.DeepEqual(killed, baseline) {
		t.Fatalf("failover changed outputs:\nkilled:   %+v\nbaseline: %+v", killed, baseline)
	}

	m := ex.Metrics().Snapshot()
	if m.ShardDrains != 1 {
		t.Fatalf("drains = %d, want 1", m.ShardDrains)
	}
	// Sessions 0, 2, 4 are pinned to shard 0; all must have migrated clean.
	if m.Migrations != 3 || m.FailedMigrations != 0 {
		t.Fatalf("migrations = %d (failed %d), want 3 clean", m.Migrations, m.FailedMigrations)
	}
	if got := ex.Shard(0).Gen; got != 1 {
		t.Fatalf("shard 0 generation = %d, want 1 after one failover", got)
	}
	if st := ex.CheckpointLog().Stats(); st.Adoptions != 3 {
		t.Fatalf("checkpoint adoptions = %d, want 3", st.Adoptions)
	}

	// The failover event log for the killed shard replays deterministically.
	again, ex2, _ := trackRun(t, shards, streams, steps, func(e *core.Executor) {
		e.ScheduleKill(0, killAt)
	})
	requireCleanResults(t, again)
	if !reflect.DeepEqual(again, killed) {
		t.Fatal("two identical kill runs diverged")
	}
	if ev, ev2 := ex.EventsFor(0), ex2.EventsFor(0); !reflect.DeepEqual(ev, ev2) {
		t.Fatalf("failover event logs diverged across replays:\n%v\nvs\n%v", ev, ev2)
	}
}

// TestChainedFailover kills the same shard id twice with steps in between:
// the second failover must restore state that already went through one
// adoption, which only works because Adopt re-appends migrated state to the
// log under its new slot. Final state must match an unkilled run exactly.
func TestChainedFailover(t *testing.T) {
	run := func(killAfter []int) (x, y float64) {
		ex := newExecutor(t, 1, core.Default())
		ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1})
		s := ex.Session()

		// Seed the filter state (one stateful call, so it is in the log).
		if err := s.Do(func(sh *core.Shard) error {
			h, _, err := sh.Ex.Call("torch.tensor", framework.Int64(4), framework.Float64(0))
			if err != nil {
				return err
			}
			if _, _, err := sh.Ex.Call("cv.KalmanFilter.correct",
				h[0].Value(), framework.Float64(10), framework.Float64(20)); err != nil {
				return err
			}
			s.Bind("state", h[0])
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		kills := map[int]bool{}
		for _, k := range killAfter {
			kills[k] = true
		}
		for step := 0; step < 8; step++ {
			err := s.Do(func(sh *core.Shard) error {
				h, _ := s.Bound("state")
				_, plain, err := sh.Ex.Call("cv.KalmanFilter.correct",
					h.Value(), framework.Float64(float64(10+3*step)), framework.Float64(float64(20-2*step)))
				if err != nil {
					return err
				}
				x, y = plain[0].Float, plain[1].Float
				return nil
			})
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if kills[step] {
				ex.KillShard(0, fmt.Sprintf("test kill after step %d", step))
			}
		}
		return x, y
	}

	bx, by := run(nil)
	kx, ky := run([]int{2, 5}) // two losses of the same shard id
	if kx != bx || ky != by {
		t.Fatalf("chained failover diverged: (%v, %v) vs baseline (%v, %v)", kx, ky, bx, by)
	}
}

// TestDetectionFailoverDeterministic is the acceptance scenario: a 4-shard
// detection service loses shard 2 mid-stream; every response — including
// those of migrated sessions — is identical to the fault-free baseline,
// across two independent replays.
func TestDetectionFailoverDeterministic(t *testing.T) {
	const shards, requests = 4, 24

	var killAt vclock.Duration // 0 on the baseline pass; set mid-window after
	run := func(kill bool) ([]apps.DetectionResult, *core.Executor) {
		ex := newExecutor(t, shards, core.Default())
		ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1})
		srv, err := apps.ProvisionDetection(ex)
		if err != nil {
			t.Fatal(err)
		}
		if kill {
			ex.ScheduleKill(2, killAt)
		}
		start := ex.Shard(2).Clock().Now()
		results := srv.Serve(apps.GenDetectionRequests(7, requests))
		if !kill {
			killAt = (start + ex.Shard(2).Clock().Now()) / 2
		}
		return results, ex
	}

	baseline, _ := run(false)
	for i, r := range baseline {
		if r.Err != nil {
			t.Fatalf("baseline request %d: %v", i, r.Err)
		}
	}

	killed, ex := run(true)
	for i, r := range killed {
		if r.Err != nil {
			t.Fatalf("killed-run request %d: %v", i, r.Err)
		}
	}
	if !reflect.DeepEqual(killed, baseline) {
		t.Fatalf("losing shard 2 changed responses:\nkilled:   %+v\nbaseline: %+v", killed, baseline)
	}
	if ex.Metrics().Snapshot().ShardDrains != 1 {
		t.Fatalf("drains = %d, want 1", ex.Metrics().Snapshot().ShardDrains)
	}
	if got := len(ex.Incarnations(2)); got != 2 {
		t.Fatalf("shard 2 incarnations = %d, want 2", got)
	}

	again, ex2 := run(true)
	if !reflect.DeepEqual(again, killed) {
		t.Fatal("two identical kill runs diverged")
	}
	if ev, ev2 := ex.EventsFor(2), ex2.EventsFor(2); !reflect.DeepEqual(ev, ev2) {
		t.Fatalf("failover event logs diverged:\n%v\nvs\n%v", ev, ev2)
	}
}

// TestQueueWaitRecorded pins DoAt's queueing semantics: a request arriving
// while the shard is busy waits (latency = wait + service), a request
// arriving after the shard went idle advances the clock to its arrival and
// waits zero.
func TestQueueWaitRecorded(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(1, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.Shard(0).Clock().Reset() // discard boot cost: measure from t=0
	s := ex.Session()

	// First request arrives at t=100µs on an idle shard: clock jumps to the
	// arrival, service takes 50µs.
	if err := s.DoAt(100*time.Microsecond, func(sh *core.Shard) error {
		sh.K.Clock.Advance(50 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if now := ex.Shard(0).Clock().Now(); now != 150*time.Microsecond {
		t.Fatalf("clock = %v, want 150µs", now)
	}
	// Second request arrived at t=120µs — while the first was in service —
	// so it queued 30µs; its latency is 30µs wait + 10µs service.
	if err := s.DoAt(120*time.Microsecond, func(sh *core.Shard) error {
		sh.K.Clock.Advance(10 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	wantLat := []vclock.Duration{50 * time.Microsecond, 40 * time.Microsecond}
	if got := []vclock.Duration{ex.Latencies().Percentile(0), ex.Latencies().Percentile(100)}; got[0] != wantLat[1] || got[1] != wantLat[0] {
		t.Fatalf("latencies = %v, want min 40µs max 50µs", got)
	}
	if got := ex.QueueWaits().Percentile(100); got != 30*time.Microsecond {
		t.Fatalf("max queue wait = %v, want 30µs", got)
	}
	if got := ex.QueueWaits().Percentile(0); got != 0 {
		t.Fatalf("min queue wait = %v, want 0", got)
	}
}

// TestDoArrivesAtAdmission pins Do's backward compatibility: no arrival
// stamp means zero queueing delay, so latency is pure service time.
func TestDoArrivesAtAdmission(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(1, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	s := ex.Session()
	ex.Shard(0).Clock().Advance(500 * time.Microsecond) // pre-existing work
	if err := s.Do(func(sh *core.Shard) error {
		sh.K.Clock.Advance(7 * time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := ex.Latencies().Percentile(100); got != 7*time.Microsecond {
		t.Fatalf("latency = %v, want 7µs (service only)", got)
	}
	if got := ex.QueueWaits().Percentile(100); got != 0 {
		t.Fatalf("queue wait = %v, want 0", got)
	}
}

// TestKillShardReplacesAndLogsEvents checks the failover state machine on
// direct shards: kill → (on next invocation) drain → replace → migrate,
// with the event log and counters recording each step.
func TestKillShardReplacesAndLogsEvents(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(2, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	s := ex.Session() // pinned to shard 0
	old := ex.Shard(0)

	ex.KillShard(0, "test")
	if err := s.Do(func(sh *core.Shard) error {
		if sh == old {
			return fmt.Errorf("job ran on the killed shard")
		}
		sh.K.Clock.Advance(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	repl := ex.Shard(0)
	if repl == old || repl.Gen != 1 {
		t.Fatalf("shard 0 not replaced (gen %d)", repl.Gen)
	}
	if !old.Failed() {
		t.Fatal("killed shard not marked failed")
	}
	m := ex.Metrics().Snapshot()
	if m.ShardDrains != 1 || m.Migrations != 1 {
		t.Fatalf("metrics = drains %d migrations %d, want 1/1", m.ShardDrains, m.Migrations)
	}
	kinds := []string{}
	for _, ev := range ex.EventsFor(0) {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"kill", "drain", "replace", "migrate"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
}

// TestHealthPolicyFailThreshold checks the failure window: crash-class
// errors surfacing from jobs trip the threshold, the shard drains, and the
// failing invocation re-runs on the replacement so the caller sees success.
func TestHealthPolicyFailThreshold(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(1, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 2})
	s := ex.Session()

	// First crash-class failure: under threshold, error surfaces.
	errTimeout := fmt.Errorf("call: %w", ipc.ErrTimeout)
	if err := s.Do(func(sh *core.Shard) error { return errTimeout }); err == nil {
		t.Fatal("first crash-class error should surface (threshold not reached)")
	}
	if ex.Shard(0).Failed() {
		t.Fatal("shard drained below threshold")
	}

	// Second failure trips the threshold mid-invocation: the shard drains
	// and the invocation re-runs on the replacement, which succeeds.
	attempts := 0
	err = s.Do(func(sh *core.Shard) error {
		attempts++
		if sh.Gen == 0 {
			return errTimeout
		}
		sh.K.Clock.Advance(1)
		return nil
	})
	if err != nil {
		t.Fatalf("invocation should succeed on the replacement: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (original + replacement)", attempts)
	}
	if ex.Shard(0).Gen != 1 {
		t.Fatalf("shard gen = %d, want 1", ex.Shard(0).Gen)
	}
	if m := ex.Metrics().Snapshot(); m.ShardDrains != 1 {
		t.Fatalf("drains = %d, want 1", m.ShardDrains)
	}
}

// TestFailedMigrationCounted checks the failure path: a bound handle with
// no checkpoint in the log cannot be restored — the session still moves,
// and the loss is counted and logged.
func TestFailedMigrationCounted(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(1, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	s := ex.Session()
	s.Bind("phantom", core.Handle{}) // never checkpointed

	ex.KillShard(0, "test")
	if err := s.Do(func(sh *core.Shard) error { sh.K.Clock.Advance(1); return nil }); err != nil {
		t.Fatal(err)
	}
	m := ex.Metrics().Snapshot()
	if m.FailedMigrations != 1 || m.Migrations != 0 {
		t.Fatalf("migrations = %d clean / %d failed, want 0/1", m.Migrations, m.FailedMigrations)
	}
	evs := ex.EventsFor(0)
	last := evs[len(evs)-1]
	if last.Kind != "migrate-failed" {
		t.Fatalf("last event = %v, want migrate-failed", last)
	}
}

// TestReplacementJoinsVirtualTimeline checks the replacement's clock: it
// becomes available at the dead shard's virtual time plus its own boot
// cost — never earlier, since failover is not free time travel, and never
// later: a shard that died before its clock reached one boot (a reset
// clock, as the benchmark and the report drills use) charges its
// replacement the boot once, not twice.
func TestReplacementJoinsVirtualTimeline(t *testing.T) {
	for _, row := range []struct {
		name  string
		reset bool
	}{
		{"past one boot", false},
		{"below one boot", true},
	} {
		t.Run(row.name, func(t *testing.T) {
			ex := newExecutor(t, 1, core.Default())
			s := ex.Session()
			old := ex.Shard(0)
			boot := old.Clock().Now() // the factory's boot cost, the same for every build
			if row.reset {
				old.Clock().Reset()
				old.Clock().Advance(boot / 10)
			} else {
				old.Clock().Advance(time.Millisecond)
			}
			deadAt := old.Clock().Now()

			ex.KillShard(0, "test")
			if err := s.Do(func(sh *core.Shard) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if got := ex.Shard(0).Clock().Now(); got != deadAt+boot {
				t.Fatalf("replacement clock %v, want the dead shard's %v plus one boot %v = %v",
					got, deadAt, boot, deadAt+boot)
			}
		})
	}
}
