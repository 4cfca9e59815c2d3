package report

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// poolFingerprint is everything a serving run leaves behind that the
// zero-cost guard compares: the merged critical path, each shard's final
// clock, each shard runtime's full metrics snapshot, and the served count.
type poolFingerprint struct {
	Critical vclock.Duration
	Clocks   []vclock.Duration
	Metrics  []metrics.Snapshot
	Served   int
}

// serveFingerprint provisions the detection service on an executor built
// from factory, serves the standard request stream, and returns the
// fingerprint.
func serveFingerprint(t *testing.T, factory core.ShardFactory) poolFingerprint {
	t.Helper()
	ex, err := core.NewExecutor(4, factory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		t.Fatal(err)
	}
	results := srv.Serve(apps.GenDetectionRequests(7, 24))
	fp := poolFingerprint{Critical: ex.CriticalPath(), Served: apps.Served(results)}
	for i := 0; i < ex.Shards(); i++ {
		sh := ex.Shard(i)
		fp.Clocks = append(fp.Clocks, sh.Clock().Now())
		if sh.Rt != nil {
			fp.Metrics = append(fp.Metrics, sh.Rt.Metrics.Snapshot())
		}
	}
	return fp
}

// TestDefenseZeroCost pins the tentpole's zero-cost guarantee: a
// DynamicShards factory whose configuration closure always returns the
// same static configuration builds pools indistinguishable — clocks,
// metrics, results — from ProtectedShards over that configuration, for
// every isolation preset. Deploying the re-bind machinery without an
// active controller costs nothing.
func TestDefenseZeroCost(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	for _, pol := range isolation.Presets() {
		pol := pol
		t.Run(pol.Name, func(t *testing.T) {
			cfg := core.ConfigForIsolation(pol)
			static := serveFingerprint(t, core.ProtectedShards(reg, cat, cfg))
			dynamic := serveFingerprint(t, core.DynamicShards(reg, cat, func() core.Config { return cfg }, nil))
			if static.Served != 24 {
				t.Fatalf("static pool served %d/24", static.Served)
			}
			if !reflect.DeepEqual(static, dynamic) {
				t.Fatalf("dynamic pool with static config diverged from ProtectedShards:\nstatic:  %+v\ndynamic: %+v", static, dynamic)
			}
		})
	}
}

// TestMeasureDefense runs the full campaign at drill scale and checks the
// headline invariants: the adaptive row blocks at least as much of the
// main wave as the strongest static row while paying strictly less steady
// overhead than the paper preset, annealing all the way back to its
// floor, and every row keeps serving its full legitimate load.
func TestMeasureDefense(t *testing.T) {
	if testing.Short() {
		t.Skip("full defense campaign in -short mode")
	}
	rows, err := MeasureDefense(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DefenseResult{}
	for _, r := range rows {
		byName[r.Policy] = r
		if r.Served != r.Requests {
			t.Errorf("%s: served %d/%d legitimate requests", r.Policy, r.Served, r.Requests)
		}
		if !r.AtFloor {
			t.Errorf("%s: campaign did not end at its floor policy", r.Policy)
		}
	}
	ad, ok := byName["adaptive"]
	if !ok {
		t.Fatal("no adaptive row")
	}
	paper, tiered := byName["paper"], byName["tiered"]
	if ad.Blocked < tiered.Blocked || ad.Blocked != ad.Total {
		t.Errorf("adaptive blocked %d/%d (tiered %d/%d); want full containment after first sighting",
			ad.Blocked, ad.Total, tiered.Blocked, tiered.Total)
	}
	if ad.Screened == 0 || ad.Escalations == 0 || ad.Anneals == 0 || ad.Quarantines != 1 || ad.Releases != 1 {
		t.Errorf("adaptive controller idle: %+v", ad)
	}
	if ad.OffenderRejected != ad.OffenderAttempts || ad.OffenderAttempts == 0 {
		t.Errorf("quarantine gate rejected %d/%d offender attempts", ad.OffenderRejected, ad.OffenderAttempts)
	}
	if ad.WatchdogTrips == 0 {
		t.Error("DoS resource watchdog never tripped on the adaptive row")
	}
	if ad.SteadyOverheadPct >= paper.SteadyOverheadPct {
		t.Errorf("adaptive steady overhead %+.2f%% not below paper %+.2f%%",
			ad.SteadyOverheadPct, paper.SteadyOverheadPct)
	}
	for _, r := range rows {
		if r.Adaptive {
			continue
		}
		if r.Sightings != 0 || r.Rebinds != 0 || r.Screened != 0 {
			t.Errorf("static row %s shows controller activity: %+v", r.Policy, r)
		}
	}
}

func TestWriteDefenseJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_defense.json")
	rows := []DefenseResult{{Policy: "adaptive", Adaptive: true, Blocked: 18, Total: 18}}
	if err := writeJSON(path, rows); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"policy": "adaptive"`, `"blocked": 18`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("JSON missing %q:\n%s", want, b)
		}
	}
}
