package apps_test

import (
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/report"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
)

// newTrackingPool provisions a protected n-shard pool with reset clocks,
// ready to serve tracking streams.
func newTrackingPool(t *testing.T, n int) (*core.Executor, *apps.TrackingServer) {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	ex, err := core.NewExecutor(n, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	srv := apps.ProvisionTracking(ex)
	for i := 0; i < ex.Shards(); i++ {
		ex.Shard(i).K.Clock.Reset()
	}
	return ex, srv
}

// TestZeroCostGuardServing pins the PR's compatibility obligation: with the
// zero admission policy and no orderer the serving path must behave
// bit-identically to the legacy ramp — and a WFQ orderer over single-tenant
// streams (which by construction keeps arrival order) must not change a
// result, a latency percentile, or the event log either, even though it
// routes every wave through the entries path instead of the fast path.
func TestZeroCostGuardServing(t *testing.T) {
	streams := apps.GenTrackStreams(21, 6, 8)
	type run struct {
		results []apps.TrackResult
		p50     vclock.Duration
		p99     vclock.Duration
		crit    vclock.Duration
		events  int
	}
	serve := func(explicitZero bool, opt apps.RampOptions) run {
		ex, srv := newTrackingPool(t, 2)
		if explicitZero {
			ex.SetAdmission(core.AdmissionPolicy{})
		}
		res := srv.ServeRampOpts(streams, opt)
		return run{res, ex.Latencies().P50(), ex.Latencies().P99(), ex.CriticalPath(), len(ex.Events())}
	}

	legacy := serve(false, apps.RampOptions{})
	zeroPol := serve(true, apps.RampOptions{})
	ordered := serve(false, apps.RampOptions{Orderer: &sched.WFQ{}})

	for i, r := range legacy.results {
		if r.Err != nil {
			t.Fatalf("legacy stream %d: %v", i, r.Err)
		}
	}
	if !reflect.DeepEqual(legacy, zeroPol) {
		t.Fatalf("explicit zero policy diverged from legacy path:\n%+v\nvs\n%+v", zeroPol, legacy)
	}
	if !reflect.DeepEqual(legacy, ordered) {
		t.Fatalf("WFQ orderer over single-tenant streams diverged from legacy path:\n%+v\nvs\n%+v", ordered, legacy)
	}
	if legacy.events != 0 {
		t.Fatalf("legacy run logged %d failover events, want 0", legacy.events)
	}
}

// TestShedPurityCheckpointLog pins the exactly-once side of shedding: a
// shed request leaves zero checkpoint entries. The tracking workload
// appends deterministically per served call, so the checkpoint log of an
// overloaded run must land exactly on the per-init/per-step line fitted
// from clean closed-loop runs — one stray append from a shed step breaks
// the equation. Run under -race via make check.
func TestShedPurityCheckpointLog(t *testing.T) {
	appendsFor := func(steps int) uint64 {
		ex, srv := newTrackingPool(t, 1)
		probe := apps.GenTrackStreams(7, 1, steps)
		for i := range probe[0].Arrivals {
			probe[0].Arrivals[i] = 0
		}
		for i, r := range srv.ServeStreams(probe) {
			if r.Err != nil {
				t.Fatalf("probe stream %d: %v", i, r.Err)
			}
		}
		return ex.CheckpointLog().Stats().Appends
	}
	a4, a12 := appendsFor(4), appendsFor(12)
	if a12 <= a4 {
		t.Fatalf("checkpoint appends not increasing in steps: %d vs %d", a4, a12)
	}
	perStep := (a12 - a4) / 8
	perInit := a4 - 4*perStep

	// A 6x-overloaded two-tenant run: most steps shed at the queue bound or
	// the deadline, the rest served.
	initCost, stepCost, err := report.CalibrateTracking()
	if err != nil {
		t.Fatal(err)
	}
	const shards, heavy, light, steps = 2, 6, 2, 24
	perShard := vclock.Duration((heavy + light) / shards)
	streams := apps.GenTenantStreams(17, heavy, light, steps,
		stepCost*perShard/6, initCost*(perShard+1))

	ex, srv := newTrackingPool(t, shards)
	ex.SetAdmission(core.AdmissionPolicy{QueueLimit: 2, Deadline: 2 * stepCost})
	results := srv.ServeRampOpts(streams, apps.RampOptions{
		TolerateShed: true,
		Orderer:      &sched.WFQ{Quantum: 5 * stepCost / 4},
	})
	served, dropped := 0, 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("stream %d: %v", i, r.Err)
		}
		served += r.Steps
		dropped += r.Dropped
	}
	if dropped == 0 {
		t.Fatal("overload run shed nothing; the purity check exercised nothing")
	}
	if served == 0 {
		t.Fatal("overload run served nothing; the purity check exercised nothing")
	}
	appends := ex.CheckpointLog().Stats().Appends
	want := perInit*uint64(len(streams)) + perStep*uint64(served)
	if appends != want {
		t.Fatalf("checkpoint log has %d appends, want %d (%d inits, %d served steps): shed work touched the log",
			appends, want, len(streams), served)
	}
}
