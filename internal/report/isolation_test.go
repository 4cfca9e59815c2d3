package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/attack"
)

// TestIsolationFrontier replays the 18-CVE corpus under every preset at a
// reduced serving size and pins the frontier's shape: the paper policy
// blocks everything, the tiered policy gives up only the visualizing DoS,
// the all-domain policy stops only memory-safety classes, and each step
// down in coverage buys strictly lower serving overhead.
func TestIsolationFrontier(t *testing.T) {
	rows, err := MeasureIsolation(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want one per preset", len(rows))
	}
	byName := map[string]IsolationResult{}
	for _, r := range rows {
		byName[r.Policy] = r
		if r.Total != len(attack.EvalCVEs()) {
			t.Errorf("%s replayed %d CVEs, want %d", r.Policy, r.Total, len(attack.EvalCVEs()))
		}
		if len(r.CVEs) != r.Total {
			t.Errorf("%s has %d CVE outcomes, want %d", r.Policy, len(r.CVEs), r.Total)
		}
	}

	wantBlocked := map[string]int{"paper": 18, "tiered": 17, "erim": 5, "none": 0}
	for name, want := range wantBlocked {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("preset %q missing from results", name)
		}
		if r.Blocked != want {
			t.Errorf("%s blocked %d/18, want %d", name, r.Blocked, want)
		}
	}

	// The frontier must be strictly ordered: more isolation, more overhead.
	none, erim, tiered, paper := byName["none"], byName["erim"], byName["tiered"], byName["paper"]
	if none.OverheadPct != 0 {
		t.Errorf("none overhead = %.2f%%, want 0 (it is the baseline)", none.OverheadPct)
	}
	if !(none.OverheadPct < erim.OverheadPct && erim.OverheadPct < tiered.OverheadPct && tiered.OverheadPct < paper.OverheadPct) {
		t.Errorf("overhead not strictly ordered: none=%.2f erim=%.2f tiered=%.2f paper=%.2f",
			none.OverheadPct, erim.OverheadPct, tiered.OverheadPct, paper.OverheadPct)
	}

	// Mechanism accounting: only policies with a domain tier pay switches.
	if paper.DomainSwitches != 0 || none.DomainSwitches != 0 {
		t.Errorf("paper/none charged domain switches: %d / %d", paper.DomainSwitches, none.DomainSwitches)
	}
	if erim.DomainSwitches == 0 || tiered.DomainSwitches == 0 {
		t.Errorf("erim/tiered charged no domain switches: %d / %d", erim.DomainSwitches, tiered.DomainSwitches)
	}

	// The one CVE tiered gives up is the visualizing DoS (domain tier
	// shares the host's fate, so a crash in cv.imshow still kills serving).
	for _, c := range tiered.CVEs {
		if c.Blocked {
			continue
		}
		if c.API != "cv.imshow" || c.Class != attack.ClassDoS.String() {
			t.Errorf("tiered leaks %s (%s %s), want only the cv.imshow DoS", c.CVE, c.API, c.Class)
		}
	}
}

// TestMeasureIsolationDeterministic pins replay stability: two measurements
// at the same size must be identical, including virtual-clock readings.
func TestMeasureIsolationDeterministic(t *testing.T) {
	a, err := MeasureIsolation(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureIsolation(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("isolation measurement not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestWriteIsolationJSON round-trips the benchmark artifact.
func TestWriteIsolationJSON(t *testing.T) {
	rows := []IsolationResult{{Policy: "paper", Blocked: 18, Total: 18, OverheadPct: 29.4}}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeJSON(path, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []IsolationResult
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip = %+v, want %+v", got, rows)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("artifact should end with a newline")
	}
}
