package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// newDirectExecutor builds an unprotected n-shard executor — admission
// semantics live entirely in the executor layer, so the cheap shard
// flavor exercises them fully.
func newDirectExecutor(t *testing.T, n int) *core.Executor {
	t.Helper()
	ex, err := core.NewExecutor(n, core.DirectShards(all.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	// Admission arithmetic is relative to arrival stamps, so measure from a
	// zero clock rather than the shard boot cost.
	for i := 0; i < n; i++ {
		ex.Shard(i).K.Clock.Reset()
	}
	return ex
}

// advance returns a job that models a fixed service time.
func advance(d vclock.Duration) func(sh *core.Shard) error {
	return func(sh *core.Shard) error {
		sh.K.Clock.Advance(d)
		return nil
	}
}

// TestAdmissionQueueBound pins the virtual 503: with QueueLimit 2, the
// request that arrives while two admitted ones are still on the virtual
// timeline is rejected with ErrOverloaded — its job never runs — and a
// later arrival, after the queue has drained on the timeline, is admitted
// again.
func TestAdmissionQueueBound(t *testing.T) {
	ex := newDirectExecutor(t, 1)
	ex.SetAdmission(core.AdmissionPolicy{QueueLimit: 2})
	s := ex.Session()

	// Two requests arriving at t=0, each 100ns of service: they occupy the
	// timeline until 100 and 200.
	for i := 0; i < 2; i++ {
		if err := s.DoAt(0, advance(100)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	ran := false
	err := s.DoAt(0, func(sh *core.Shard) error { ran = true; return nil })
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("third arrival at t=0: got %v, want ErrOverloaded", err)
	}
	if ran {
		t.Fatal("rejected request's job ran")
	}
	if got := core.ErrClass(err); got != "overloaded" {
		t.Fatalf("ErrClass = %q, want overloaded", got)
	}
	// The bound is a function of the virtual timeline, not a permanent
	// state: an arrival past both completions sees an empty queue.
	if err := s.DoAt(250, advance(100)); err != nil {
		t.Fatalf("arrival after drain: %v", err)
	}

	events, m := ex.EventsAndMetrics()
	if m.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", m.Rejected)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == "reject" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reject event in log: %v", events)
	}
}

// TestAdmissionDeadline pins deadline shedding: a request whose queue wait
// on the virtual clock exceeds its deadline is dropped at dequeue with
// ErrDeadlineExceeded, without running or advancing the shard clock.
func TestAdmissionDeadline(t *testing.T) {
	ex := newDirectExecutor(t, 1)
	ex.SetAdmission(core.AdmissionPolicy{Deadline: 50})
	s := ex.Session()

	if err := s.DoAt(0, advance(100)); err != nil {
		t.Fatal(err)
	}
	// Dequeued at clock 100, arrived at 0, deadline 50: 50ns late.
	ran := false
	err := s.DoAt(0, func(sh *core.Shard) error { ran = true; return nil })
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("stale dequeue: got %v, want ErrDeadlineExceeded", err)
	}
	if ran {
		t.Fatal("shed request's job ran")
	}
	if got := ex.Shard(0).K.Clock.Now(); got != 100 {
		t.Fatalf("shed request moved the shard clock: %v, want 100", got)
	}
	if got := core.ErrClass(err); got != "deadline" {
		t.Fatalf("ErrClass = %q, want deadline", got)
	}
	// A fresh arrival the idle shard can serve on time is unaffected.
	if err := s.DoAt(200, advance(100)); err != nil {
		t.Fatal(err)
	}

	events, m := ex.EventsAndMetrics()
	if m.DeadlineShed != 1 {
		t.Fatalf("DeadlineShed = %d, want 1", m.DeadlineShed)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == "shed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shed event in log: %v", events)
	}
}

// TestAdmissionZeroPolicyIsInert pins the zero-cost guard at the executor
// layer: with the zero AdmissionPolicy installed explicitly, nothing is
// ever rejected, no overload events appear, and per-tenant counters show
// pure service.
func TestAdmissionZeroPolicyIsInert(t *testing.T) {
	ex := newDirectExecutor(t, 1)
	ex.SetAdmission(core.AdmissionPolicy{})
	s := ex.Session()
	// The same pattern that trips both mechanisms under an active policy.
	for i := 0; i < 8; i++ {
		if err := s.DoAt(0, advance(100)); err != nil {
			t.Fatalf("request %d rejected under zero policy: %v", i, err)
		}
	}
	events, m := ex.EventsAndMetrics()
	if m.Rejected != 0 || m.DeadlineShed != 0 {
		t.Fatalf("zero policy shed work: rejected=%d deadline=%d", m.Rejected, m.DeadlineShed)
	}
	for _, ev := range events {
		if ev.Kind == "reject" || ev.Kind == "shed" {
			t.Fatalf("zero policy logged overload event: %v", ev)
		}
	}
}

// TestErrClassTaxonomy pins the class names the per-class summaries print —
// operators alert on these strings.
func TestErrClassTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{core.ErrOverloaded, "overloaded"},
		{fmt.Errorf("shard 3: %w", core.ErrOverloaded), "overloaded"},
		{core.ErrDeadlineExceeded, "deadline"},
		{fmt.Errorf("late: %w", core.ErrDeadlineExceeded), "deadline"},
		{ipc.ErrTimeout, "timeout"},
		{ipc.ErrAgentCrashed, "agent-crash"},
		{ipc.ErrCorrupt, "corrupt"},
		{errors.New("anything else"), "app-error"},
	}
	for _, c := range cases {
		if got := core.ErrClass(c.err); got != c.want {
			t.Errorf("ErrClass(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// admissionOutcome is everything an admission path leaves behind on an
// executor: what DoBatch must share with a sequence of DoAt calls.
type admissionOutcome struct {
	Errs    []string
	Lat     []vclock.Duration
	Queue   []vclock.Duration
	Events  metrics.Log
	Clocks  []vclock.Duration
	Metrics metrics.Snapshot
}

// sortedSamples reads a distribution's samples in ascending order through
// its nearest-rank percentiles.
func sortedSamples(l *vclock.Latencies) []vclock.Duration {
	n := l.Len()
	out := make([]vclock.Duration, n)
	for i := range out {
		out[i] = l.Percentile(100 * (float64(i) + 0.5) / float64(n))
	}
	return out
}

// noRebuildOfSlot0 returns a direct-shard factory whose slot 0 cannot be
// built a second time: its replacement always fails.
func noRebuildOfSlot0() core.ShardFactory {
	direct := core.DirectShards(all.Registry())
	built := false
	return func(id int) (*core.Shard, error) {
		if id == 0 {
			if built {
				return nil, errors.New("no spare machine")
			}
			built = true
		}
		return direct(id)
	}
}

// TestDoBatchMatchesDoAt pins DoBatch to DoAt's admission path: the same
// entries run as one batch on one executor, and through DoAt one after
// another on a twin, leave equal per-entry errors, latency and queue-wait
// samples, event logs, shard clocks and metrics — apart from the batch
// counters. Each row is a decision the batch path once made on its own.
func TestDoBatchMatchesDoAt(t *testing.T) {
	slowOn0 := func(sh *core.Shard) error {
		if sh.ID == 0 {
			sh.K.Clock.Advance(10 * ms)
		} else {
			sh.K.Clock.Advance(ms / 2)
		}
		return nil
	}
	type entry struct {
		session int // sessions open round-robin: session i is on slot i
		arrival vclock.Duration
		job     func(*core.Shard) error
	}
	rows := []struct {
		name    string
		factory func() core.ShardFactory
		setup   func(*core.Executor)
		entries []entry
		check   func(t *testing.T, got admissionOutcome)
	}{
		{
			// A stamped entry whose primary overruns the delay hedges.
			name:    "hedge",
			factory: func() core.ShardFactory { return core.DirectShards(all.Registry()) },
			setup:   func(ex *core.Executor) { ex.SetHedge(core.HedgePolicy{Delay: ms}) },
			entries: []entry{{0, 0, slowOn0}, {1, 0, advance(ms / 2)}},
			check: func(t *testing.T, got admissionOutcome) {
				if m := got.Metrics; m.Hedges != 1 || m.HedgeWins != 1 {
					t.Fatalf("hedges/wins = %d/%d, want 1/1", m.Hedges, m.HedgeWins)
				}
			},
		},
		{
			// Slot 0's replacement cannot be built: its entries fail, and
			// the entry pinned to healthy slot 1 still runs.
			name:    "failed replacement",
			factory: noRebuildOfSlot0,
			setup:   func(ex *core.Executor) { ex.KillShard(0, "test") },
			entries: []entry{{0, 0, advance(ms)}, {1, 0, advance(ms)}, {0, ms, advance(ms)}},
			check: func(t *testing.T, got admissionOutcome) {
				if got.Errs[0] == "<nil>" || got.Errs[1] != "<nil>" || got.Errs[2] == "<nil>" {
					t.Fatalf("errors = %q, want slot 0's entries failed and slot 1's served", got.Errs)
				}
				if got.Clocks[1] != ms {
					t.Fatalf("slot 1 clock = %v, want its job's %v", got.Clocks[1], ms)
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run := func(batched bool) admissionOutcome {
				ex, err := core.NewExecutor(2, row.factory())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(ex.Close)
				sessions := []*core.Session{ex.Session(), ex.Session()}
				for i := 0; i < ex.Shards(); i++ {
					ex.Shard(i).K.Clock.Reset()
				}
				row.setup(ex)
				errs := make([]error, len(row.entries))
				if batched {
					batch := make([]core.BatchEntry, len(row.entries))
					for i, en := range row.entries {
						batch[i] = core.BatchEntry{Session: sessions[en.session], Arrival: en.arrival, Job: en.job}
					}
					errs = ex.DoBatch(batch)
				} else {
					for i, en := range row.entries {
						errs[i] = sessions[en.session].DoAt(en.arrival, en.job)
					}
				}
				out := admissionOutcome{
					Lat:     sortedSamples(ex.Latencies()),
					Queue:   sortedSamples(ex.QueueWaits()),
					Events:  ex.Events(),
					Metrics: ex.Metrics().Snapshot(),
				}
				for _, err := range errs {
					out.Errs = append(out.Errs, fmt.Sprint(err))
				}
				for i := 0; i < ex.Shards(); i++ {
					out.Clocks = append(out.Clocks, ex.Shard(i).Clock().Now())
				}
				return out
			}
			seq, batched := run(false), run(true)
			row.check(t, seq)
			if m := batched.Metrics; m.BatchedAdmissions != 1 || m.BatchedRequests != uint64(len(row.entries)) {
				t.Fatalf("batch counters = %d/%d, want 1/%d", m.BatchedAdmissions, m.BatchedRequests, len(row.entries))
			}
			batched.Metrics.BatchedAdmissions, batched.Metrics.BatchedRequests = 0, 0
			if !reflect.DeepEqual(batched, seq) {
				t.Fatalf("DoBatch left\n%+v\nDoAt left\n%+v", batched, seq)
			}
		})
	}
}
