package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
