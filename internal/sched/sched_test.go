package sched_test

import (
	"reflect"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
)

func TestBatcherSplit(t *testing.T) {
	b := sched.Batcher{Size: 3, Deadline: 100}
	entries := []core.BatchEntry{
		{Arrival: 10}, {Arrival: 20}, {Arrival: 30}, // full batch
		{Arrival: 40}, {Arrival: 200}, // deadline cut: 200-40 > 100
		{Arrival: 210},
	}
	got := b.Split(entries)
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if len(got) != len(want) {
		t.Fatalf("split into %d batches, want %d", len(got), len(want))
	}
	for i, batch := range got {
		if len(batch) != len(want[i]) {
			t.Fatalf("batch %d has %d entries, want %d", i, len(batch), len(want[i]))
		}
	}
}

func TestBatcherSizeOneIsSingletons(t *testing.T) {
	b := sched.Batcher{Size: 1, Deadline: 1000}
	got := b.Split([]core.BatchEntry{{Arrival: 1}, {Arrival: 2}, {Arrival: 3}})
	if len(got) != 3 {
		t.Fatalf("size-1 batcher coalesced: %d batches for 3 entries", len(got))
	}
}

func TestBatcherNeverCoalescesClosedLoop(t *testing.T) {
	// Negative arrivals mean "as soon as the previous call returned" —
	// closed-loop requests with no admission stamp. Coalescing them would
	// change their admission times, so each rides alone.
	b := sched.Batcher{Size: 8, Deadline: 1 << 40}
	got := b.Split([]core.BatchEntry{{Arrival: -1}, {Arrival: -1}, {Arrival: 5}, {Arrival: 6}})
	if len(got) != 3 {
		t.Fatalf("closed-loop entries coalesced: %d batches, want 3", len(got))
	}
	if len(got[2]) != 2 {
		t.Fatalf("stamped entries after closed-loop ones did not coalesce: %v", got)
	}
}

func TestRoundRobinPlace(t *testing.T) {
	pool := []core.PlacementInfo{{ID: 0}, {ID: 1}, {ID: 2}}
	rr := sched.RoundRobin{}
	for s := 0; s < 6; s++ {
		if got := rr.Place(s, pool); got != s%3 {
			t.Fatalf("session %d placed on %d, want %d", s, got, s%3)
		}
	}
}

func TestLeastLoadedPlace(t *testing.T) {
	pool := []core.PlacementInfo{{ID: 0, Sessions: 2}, {ID: 1, Sessions: 1}, {ID: 2, Sessions: 1}}
	if got := (sched.LeastLoaded{}).Place(9, pool); got != 1 {
		t.Fatalf("least-loaded placed on %d, want 1 (fewest sessions, lowest id)", got)
	}
	if got := (sched.LeastLoaded{}).MigrateTarget(9, 1, pool); got != 2 {
		t.Fatalf("migrate target = %d, want 2 (source excluded)", got)
	}
}

func TestTopologySocket(t *testing.T) {
	topo := sched.Topology{ShardsPerSocket: 2}
	for id, want := range []int{0, 0, 1, 1, 2} {
		if got := topo.Socket(id); got != want {
			t.Fatalf("shard %d on socket %d, want %d", id, got, want)
		}
	}
}

func TestLocalityPrefersHomeSocket(t *testing.T) {
	// Four shards on two sockets, equal load: each session opens on its
	// home socket (session id mod sockets).
	l := sched.Locality{Topo: sched.Topology{ShardsPerSocket: 2}}
	pool := []core.PlacementInfo{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	if got := l.Place(0, pool); l.Socket(got) != 0 {
		t.Fatalf("session 0 (home socket 0) placed on shard %d (socket %d)", got, l.Socket(got))
	}
	if got := l.Place(1, pool); l.Socket(got) != 1 {
		t.Fatalf("session 1 (home socket 1) placed on shard %d (socket %d)", got, l.Socket(got))
	}
}

func TestLocalitySpillsUnderLoad(t *testing.T) {
	// Home-socket shards carry SpillThreshold more sessions than a remote
	// one, so the session spills cross-socket.
	l := sched.Locality{Topo: sched.Topology{ShardsPerSocket: 2}, SpillThreshold: 2}
	pool := []core.PlacementInfo{
		{ID: 0, Sessions: 3}, {ID: 1, Sessions: 3}, // home socket, loaded
		{ID: 2, Sessions: 0}, {ID: 3, Sessions: 1}, // remote, idle
	}
	if got := l.Place(0, pool); got != 2 {
		t.Fatalf("overloaded home socket did not spill: placed on %d, want 2", got)
	}
	// One session lighter and home wins again: 2 vs 0+spill(2) ties, home id.
	pool[0].Sessions = 2
	if got := l.Place(0, pool); got != 0 {
		t.Fatalf("home socket within threshold spilled: placed on %d, want 0", got)
	}
}

func TestLocalitySocketTieBreak(t *testing.T) {
	// Equal-scoring candidates on different sockets must resolve to the
	// lowest socket id explicitly — not whatever order the pool snapshot
	// happens to arrive in. Session 0's home is socket 0; shards 2 (socket
	// 1) and 4 (socket 2) are both remote with equal load, so both score
	// sessions+spill: socket 1 must win, even listed last.
	l := sched.Locality{Topo: sched.Topology{ShardsPerSocket: 2}, SpillThreshold: 1}
	pool := []core.PlacementInfo{
		{ID: 4, Sessions: 0},                       // socket 2, remote
		{ID: 0, Sessions: 9}, {ID: 1, Sessions: 9}, // socket 0, home, overloaded
		{ID: 2, Sessions: 0}, // socket 1, remote — same score as shard 4
	}
	if got := l.Place(0, pool); got != 2 {
		t.Fatalf("equal-score tie resolved to shard %d, want 2 (lowest socket id)", got)
	}
	// Reversed snapshot order must not change the answer.
	rev := []core.PlacementInfo{pool[3], pool[2], pool[1], pool[0]}
	if got := l.Place(0, rev); got != 2 {
		t.Fatalf("reversed pool order changed the tie-break: shard %d, want 2", got)
	}
	// Within one socket the lower slot id still wins.
	same := []core.PlacementInfo{
		{ID: 3, Sessions: 1}, {ID: 2, Sessions: 1}, // socket 1, tied
	}
	if got := l.Place(2, same); got != 2 {
		t.Fatalf("same-socket tie resolved to shard %d, want 2 (lowest slot)", got)
	}
}

// inertPolicy scales nothing: it pins the pool, disables every signal, and
// keeps batching off.
func inertPolicy(n int) sched.Policy {
	return sched.Policy{MinShards: n, MaxShards: n}
}

func TestControllerGrowsOnUtilization(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(1, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	pol := sched.Policy{MinShards: 1, MaxShards: 3, TargetSessions: 2}
	ctl := sched.New(ex, pol, nil)
	// Two sessions fill the one-shard pool to its target: the controller
	// must grow to keep a spare slot.
	ex.Session()
	ex.Session()
	ctl.Tick()
	if got := ex.Shards(); got != 2 {
		t.Fatalf("pool is %d shards after a full-pool tick, want 2", got)
	}
	evs := ctl.Events()
	if len(evs) != 1 || evs[0].Kind != "grow" {
		t.Fatalf("events = %v, want one grow", evs)
	}
	if ctl.PeakShards() != 2 {
		t.Fatalf("peak = %d, want 2", ctl.PeakShards())
	}
}

func TestControllerShrinksIdlePool(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(3, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	pol := sched.Policy{MinShards: 1, MaxShards: 3, TargetSessions: 2}
	ctl := sched.New(ex, pol, nil)
	// No sessions at all: the pool shrinks one shard per tick (zero
	// cooldown) down to the floor and no further.
	for i := 0; i < 4; i++ {
		ctl.Tick()
	}
	if got := ex.Shards(); got != 1 {
		t.Fatalf("idle pool is %d shards after 4 ticks, want floor 1", got)
	}
	shrinks := 0
	for _, ev := range ctl.Events() {
		if ev.Kind == "shrink" {
			shrinks++
		}
	}
	if shrinks != 2 {
		t.Fatalf("recorded %d shrinks, want 2", shrinks)
	}
}

func TestControllerRebalancesImbalance(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(2, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	// Stack four sessions onto shard 0 by hand, then let the controller
	// level them.
	for i := 0; i < 4; i++ {
		s := ex.Session()
		if s.Shard().ID != 0 {
			if err := ex.MigrateSession(s.ID, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	pol := inertPolicy(2)
	pol.RebalanceRatio = 3
	pol.MaxMovesPerTick = 4
	ctl := sched.New(ex, pol, nil)
	ctl.Tick()
	loads := ex.ShardLoads()
	if loads[0].Sessions != 2 || loads[1].Sessions != 2 {
		t.Fatalf("sessions after rebalance = %d/%d, want 2/2", loads[0].Sessions, loads[1].Sessions)
	}
	if log := ctl.Events().String(); !strings.Contains(log, "rebalance") {
		t.Fatalf("no rebalance event recorded:\n%s", log)
	}
}

func TestControllerInertPolicyDoesNothing(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(2, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ctl := sched.New(ex, inertPolicy(2), sched.RoundRobin{})
	for i := 0; i < 4; i++ {
		ex.Session()
		ctl.Tick()
	}
	if got := ex.Shards(); got != 2 {
		t.Fatalf("inert controller resized the pool to %d", got)
	}
	if evs := ctl.Events(); len(evs) != 0 {
		t.Fatalf("inert controller recorded events: %v", evs)
	}
}

func TestControllerEventLogReplays(t *testing.T) {
	run := func() ([]core.ShardLoad, string) {
		reg := all.Registry()
		ex, err := core.NewExecutor(1, core.DirectShards(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		pol := sched.Policy{MinShards: 1, MaxShards: 4, TargetSessions: 2, RebalanceRatio: 3, MaxMovesPerTick: 2}
		ctl := sched.New(ex, pol, nil)
		var sessions []*core.Session
		for i := 0; i < 6; i++ {
			s := ex.Session()
			sessions = append(sessions, s)
			_ = s.Do(func(sh *core.Shard) error { sh.K.Clock.Advance(vclock.Duration(1000 * (i + 1))); return nil })
			ctl.Tick()
		}
		for _, s := range sessions {
			s.Finish()
		}
		for i := 0; i < 4; i++ {
			ctl.Tick()
		}
		return ex.ShardLoads(), ctl.Events().String()
	}
	l1, log1 := run()
	l2, log2 := run()
	if log1 != log2 {
		t.Fatalf("event logs diverged across identical runs:\n%s\nvs\n%s", log1, log2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("shard loads diverged:\n%v\nvs\n%v", l1, l2)
	}
	if !strings.Contains(log1, "grow") || !strings.Contains(log1, "shrink") {
		t.Fatalf("scenario did not exercise both scale directions:\n%s", log1)
	}
}
