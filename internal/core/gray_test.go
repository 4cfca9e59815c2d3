package core_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/vclock"
)

const ms = vclock.Duration(time.Millisecond)

// advanceJob returns a job that models pure service time: it advances the
// shard clock by d and returns err.
func advanceJob(d vclock.Duration, err error) func(*core.Shard) error {
	return func(sh *core.Shard) error {
		sh.K.Clock.Advance(d)
		return err
	}
}

// grayEventKinds filters the executor's event log to the given kinds, in order.
func grayEventKinds(ex *core.Executor, kinds ...string) []string {
	want := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []string
	for _, ev := range ex.Events() {
		if want[ev.Kind] {
			out = append(out, ev.Kind)
		}
	}
	return out
}

// TestGraySuspicionDrain walks a slow shard through the scorer's whole arc:
// below four samples nothing is judged, then the shard turns suspect,
// accrues one point of suspicion per slow completion, and at score 4 is
// drained through the ordinary failover path — replacement shard, migrated
// session, and a "gray-drain" event paired with the GrayDrains counter.
func TestGraySuspicionDrain(t *testing.T) {
	ex := newExecutor(t, 2, core.Default())
	ex.SetGray(core.GrayPolicy{Ratio: 2, Baseline: ms})
	s := ex.Session() // pinned to shard 0
	defer s.Finish()

	slow := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Do(advanceJob(10*ms, nil)); err != nil {
				t.Fatalf("slow job: %v", err)
			}
		}
	}
	pre := func() []string {
		return grayEventKinds(ex, "suspect", "gray-drain", "drain", "replace", "migrate")
	}
	// Three samples are below the scoring floor: no verdict yet.
	slow(3)
	if kinds := pre(); len(kinds) != 0 {
		t.Fatalf("events after 3 samples = %v, want none", kinds)
	}
	// The fourth is judged: over 2x baseline, suspect at score 1.
	slow(1)
	if kinds := pre(); !reflect.DeepEqual(kinds, []string{"suspect"}) {
		t.Fatalf("events after 4 samples = %v, want [suspect]", kinds)
	}
	// Scores 2 and 3 do not drain; score 4 does.
	slow(2)
	if kinds := pre(); !reflect.DeepEqual(kinds, []string{"suspect"}) {
		t.Fatalf("events at score 3 = %v, want [suspect]", kinds)
	}
	slow(1)
	if kinds := pre(); !reflect.DeepEqual(kinds, []string{"suspect", "gray-drain"}) {
		t.Fatalf("pre-failover events = %v, want [suspect gray-drain]", kinds)
	}

	// The drain fires at the next admission: the session fails over to a
	// fresh incarnation and the job runs there.
	if err := s.Do(advanceJob(ms/2, nil)); err != nil {
		t.Fatalf("post-drain job: %v", err)
	}
	if got := s.Shard().Gen; got != 1 {
		t.Fatalf("session shard gen after gray drain = %d, want 1", got)
	}
	kinds := grayEventKinds(ex, "gray-drain", "drain", "replace", "migrate")
	if !reflect.DeepEqual(kinds, []string{"gray-drain", "drain", "replace", "migrate"}) {
		t.Fatalf("failover events = %v, want [gray-drain drain replace migrate]", kinds)
	}
	m := ex.Metrics().Snapshot()
	if m.GrayDrains != 1 || m.ShardDrains != 1 || m.Migrations != 1 {
		t.Fatalf("counters = gray %d drains %d migrations %d, want 1/1/1", m.GrayDrains, m.ShardDrains, m.Migrations)
	}

	scores := ex.GrayScores()
	if len(scores) != 2 {
		t.Fatalf("GrayScores len = %d, want 2", len(scores))
	}
	if scores[0].Drains != 1 {
		t.Fatalf("slot 0 drains = %d, want 1", scores[0].Drains)
	}
	if scores[0].Suspect || scores[0].Score != 0 {
		// The replacement incarnation starts with a clean record.
		t.Fatalf("slot 0 replacement score = %+v, want clean", scores[0])
	}
}

// TestGrayHysteresis pins the no-flap property: a shard that turns suspect
// and then recovers walks its suspicion back down and emits one
// "suspect-clear" — it is never drained, and a second healthy stretch adds
// no further transitions.
func TestGrayHysteresis(t *testing.T) {
	ex := newExecutor(t, 2, core.Default())
	ex.SetGray(core.GrayPolicy{Ratio: 2, Baseline: ms})
	s := ex.Session()
	defer s.Finish()

	// Four samples at 3x baseline: the fourth is judged, suspect at score 1.
	for i := 0; i < 4; i++ {
		if err := s.Do(advanceJob(3*ms, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Recovery: healthy completions pull the EWMA under the threshold and
	// decay the score to zero, clearing the flag exactly once.
	for i := 0; i < 8; i++ {
		if err := s.Do(advanceJob(ms/10, nil)); err != nil {
			t.Fatal(err)
		}
	}
	kinds := grayEventKinds(ex, "suspect", "suspect-clear", "gray-drain")
	if !reflect.DeepEqual(kinds, []string{"suspect", "suspect-clear"}) {
		t.Fatalf("events = %v, want [suspect suspect-clear]", kinds)
	}
	if got := s.Shard().Gen; got != 0 {
		t.Fatalf("shard gen = %d, want 0 (no drain)", got)
	}
	if m := ex.Metrics().Snapshot(); m.GrayDrains != 0 {
		t.Fatalf("GrayDrains = %d, want 0", m.GrayDrains)
	}
}

// TestHedgeWin races a slow primary against a fast secondary: the hedge
// launches at arrival+Delay on the other shard, completes first, supplies
// the recorded latency and the returned error, and the loser stays charged
// on its own clock.
func TestHedgeWin(t *testing.T) {
	ex := newExecutor(t, 2, core.Default())
	ex.SetHedge(core.HedgePolicy{Delay: ms})
	s := ex.Session() // shard 0
	defer s.Finish()

	c1 := ex.Shard(1).Clock().Now() // provisioning cost already on the clock
	hedgeErr := errors.New("hedge ran")
	err := s.DoAt(0, func(sh *core.Shard) error {
		if sh.ID == 0 {
			sh.K.Clock.Advance(10 * ms)
			return nil
		}
		sh.K.Clock.Advance(ms / 2)
		return hedgeErr
	})
	// Winner: hedge — its half-millisecond service beats the primary's ten
	// even after the launch delay — so its error is the call's result.
	if !errors.Is(err, hedgeErr) {
		t.Fatalf("DoAt error = %v, want hedge's", err)
	}
	m := ex.Metrics().Snapshot()
	if m.Hedges != 1 || m.HedgeWins != 1 || m.HedgeCancels != 0 {
		t.Fatalf("hedge counters = %d/%d/%d, want 1/1/0", m.Hedges, m.HedgeWins, m.HedgeCancels)
	}
	// The hedge was the only serving work on shard 1: its charged work is
	// everything past the later of the shard's clock and the launch instant,
	// and the recorded latency is its completion (arrival was 0).
	hEnd := ex.Shard(1).Clock().Now()
	hStart := c1
	if ms > hStart {
		hStart = ms
	}
	if m.HedgeWork != hEnd-hStart {
		t.Fatalf("HedgeWork = %v, want %v", m.HedgeWork, hEnd-hStart)
	}
	if got := ex.Latencies().P50(); got != hEnd {
		t.Fatalf("recorded latency = %v, want winner's %v", got, hEnd)
	}
	if pEnd := ex.Shard(0).Clock().Now(); pEnd < 10*ms || pEnd <= hEnd {
		t.Fatalf("losing primary clock = %v, want charged its full 10ms service past %v", pEnd, hEnd)
	}
	kinds := grayEventKinds(ex, "hedge", "hedge-win", "hedge-cancel")
	if !reflect.DeepEqual(kinds, []string{"hedge", "hedge-win"}) {
		t.Fatalf("events = %v, want [hedge hedge-win]", kinds)
	}
}

// TestHedgeTiebreak pins the determinism rule: when primary and secondary
// complete at the same virtual instant, the lower shard id wins. The
// primary is on slot 0 here, so the hedge — despite equal completion — is
// cancelled.
func TestHedgeTiebreak(t *testing.T) {
	ex := newExecutor(t, 2, core.Default())
	ex.SetHedge(core.HedgePolicy{Delay: ms})
	s := ex.Session()
	defer s.Finish()

	// Line the shards up for an exact tie: push shard 0 past the hedge
	// launch instant, then bring shard 1's clock level with it. Both calls
	// then start at the same virtual instant and advance the same service
	// time — identical completions by construction.
	if c := ex.Shard(0).Clock().Now(); c < ms {
		ex.Shard(0).Clock().Advance(ms - c)
	}
	if gap := ex.Shard(0).Clock().Now() - ex.Shard(1).Clock().Now(); gap > 0 {
		ex.Shard(1).Clock().Advance(gap)
	}

	hedgeErr := errors.New("hedge ran")
	err := s.DoAt(0, func(sh *core.Shard) error {
		sh.K.Clock.Advance(5 * ms)
		if sh.ID == 0 {
			return nil
		}
		return hedgeErr
	})
	if err != nil {
		t.Fatalf("DoAt error = %v, want primary's nil (tie goes to lower id)", err)
	}
	if a, b := ex.Shard(0).Clock().Now(), ex.Shard(1).Clock().Now(); a != b {
		t.Fatalf("test did not construct a tie: ends %v vs %v", a, b)
	}
	m := ex.Metrics().Snapshot()
	if m.Hedges != 1 || m.HedgeWins != 0 || m.HedgeCancels != 1 {
		t.Fatalf("hedge counters = %d/%d/%d, want 1/0/1", m.Hedges, m.HedgeWins, m.HedgeCancels)
	}
	if got, want := ex.Latencies().P50(), ex.Shard(0).Clock().Now(); got != want {
		t.Fatalf("recorded latency = %v, want primary's %v", got, want)
	}
}

// TestHedgeProfitGate pins the hedge-storm breaker: a primary that overran
// the delay still launches no hedge when no other shard is predicted to
// beat it — here because the only peer carries a backlog past the
// primary's completion.
func TestHedgeProfitGate(t *testing.T) {
	ex := newExecutor(t, 2, core.Default())
	ex.SetHedge(core.HedgePolicy{Delay: ms})
	ex.Shard(1).Clock().Advance(100 * ms) // peer backlogged far past pEnd
	s := ex.Session()
	defer s.Finish()

	if err := s.DoAt(0, advanceJob(10*ms, nil)); err != nil {
		t.Fatal(err)
	}
	if m := ex.Metrics().Snapshot(); m.Hedges != 0 {
		t.Fatalf("Hedges = %d, want 0 (no profitable target)", m.Hedges)
	}
	if got, want := ex.Latencies().P50(), ex.Shard(0).Clock().Now(); got != want {
		t.Fatalf("recorded latency = %v, want primary's %v", got, want)
	}
}

// TestHedgeClosedLoopExempt pins the idempotence rule carried over from
// deadline shedding: un-stamped (closed-loop) invocations never hedge, no
// matter how far they overrun the delay.
func TestHedgeClosedLoopExempt(t *testing.T) {
	ex := newExecutor(t, 2, core.Default())
	ex.SetHedge(core.HedgePolicy{Delay: ms})
	s := ex.Session()
	defer s.Finish()

	if err := s.Do(advanceJob(50*ms, nil)); err != nil {
		t.Fatal(err)
	}
	if m := ex.Metrics().Snapshot(); m.Hedges != 0 {
		t.Fatalf("Hedges = %d, want 0 for closed-loop call", m.Hedges)
	}
}
