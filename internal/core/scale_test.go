package core_test

import (
	"reflect"
	"sync"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// TestGrowJoinsTimelineAtBoot pins the grown shard's clock accounting: a
// shard ordered at virtual time `at` joins the timeline at at + boot, no
// matter how at compares to the boot cost. (The seed bug: observing `at`
// then advancing by boot double-charged the boot whenever at < boot.)
func TestGrowJoinsTimelineAtBoot(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()

	// Measure the factory's boot cost on a throwaway pool.
	probe, err := core.NewExecutor(1, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	boot := probe.Shard(0).K.Clock.Now()
	probe.Close()
	if boot <= 0 {
		t.Fatal("protected shards should have a nonzero boot cost")
	}

	ex, err := core.NewExecutor(1, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	for _, at := range []vclock.Duration{boot / 10, boot * 3} { // before and after one boot
		sh, err := ex.Grow(at)
		if err != nil {
			t.Fatal(err)
		}
		if got := sh.K.Clock.Now(); got != at+boot {
			t.Fatalf("shard grown at %v has clock %v, want %v", at, got, at+boot)
		}
		if sh.JoinedAt != at {
			t.Fatalf("JoinedAt = %v, want %v", sh.JoinedAt, at)
		}
	}
	if got := ex.Shards(); got != 3 {
		t.Fatalf("pool is %d shards, want 3", got)
	}
}

// TestShrinkRetiresHighestSlotAndMigrates checks scale-in: the victim is
// the highest slot, its sessions land on surviving shards, and the pool
// keeps serving them.
func TestShrinkRetiresHighestSlotAndMigrates(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(3, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	var sessions []*core.Session
	for i := 0; i < 6; i++ { // round-robin: two per shard
		sessions = append(sessions, ex.Session())
	}
	victim, err := ex.Shrink(nil)
	if err != nil {
		t.Fatal(err)
	}
	if victim.ID != 2 {
		t.Fatalf("shrink retired shard %d, want highest slot 2", victim.ID)
	}
	if got := ex.Shards(); got != 2 {
		t.Fatalf("pool is %d shards, want 2", got)
	}
	if got := ex.PinnedSessions(2); len(got) != 0 {
		t.Fatalf("retired shard still pins sessions %v", got)
	}
	for _, s := range sessions {
		if got := s.Shard().ID; got > 1 {
			t.Fatalf("session %d still pinned to retired shard %d", s.ID, got)
		}
		if err := s.Do(func(sh *core.Shard) error { sh.K.Clock.Advance(1); return nil }); err != nil {
			t.Fatalf("session %d dead after shrink: %v", s.ID, err)
		}
	}
}

// TestScaleSequenceDeterministic replays a grow/migrate/shrink sequence
// and demands byte-equal event logs and shard loads — the executor-level
// half of the control plane's replayability story.
func TestScaleSequenceDeterministic(t *testing.T) {
	run := func() (metrics.Log, []core.ShardLoad) {
		reg := all.Registry()
		ex, err := core.NewExecutor(2, core.DirectShards(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		for i := 0; i < 4; i++ {
			ex.Session()
		}
		if _, err := ex.Grow(1000); err != nil {
			t.Fatal(err)
		}
		if err := ex.MigrateSession(0, 2, 50); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Shrink(nil); err != nil {
			t.Fatal(err)
		}
		events, _ := ex.EventsAndMetrics()
		return events, ex.ShardLoads()
	}
	e1, l1 := run()
	e2, l2 := run()
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("event logs diverged:\n%v\nvs\n%v", e1, e2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("shard loads diverged:\n%v\nvs\n%v", l1, l2)
	}
}

// TestEventsAndMetricsAgree polls the paired (event log, metrics snapshot)
// while scale and migration traffic is in flight and demands they always
// explain each other — the regression guard for the snapshot/log race the
// seed had (counters bumped outside the event-log lock, so a mid-migration
// snapshot could count an event the log didn't show).
func TestEventsAndMetricsAgree(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(2, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	var sessions []*core.Session
	for i := 0; i < 4; i++ {
		sessions = append(sessions, ex.Session())
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := ex.Grow(vclock.Duration(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			_ = ex.MigrateSession(sessions[i%4].ID, i%2, 0)
		}
	}()

	check := func() {
		events, m := ex.EventsAndMetrics()
		var grows, migrates uint64
		for _, ev := range events {
			switch ev.Kind {
			case "grow":
				grows++
			case "migrate":
				migrates++
			}
		}
		if m.ScaleUps != grows {
			t.Fatalf("snapshot counts %d scale-ups, log shows %d", m.ScaleUps, grows)
		}
		if m.Migrations != migrates {
			t.Fatalf("snapshot counts %d migrations, log shows %d", m.Migrations, migrates)
		}
	}
	for i := 0; i < 200; i++ {
		check()
	}
	wg.Wait()
	check()
}
