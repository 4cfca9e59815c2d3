package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/isolation"
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

// TestEveryTierPolicyServes assigns each of the 3 tiers to each of the 4
// concrete API types in turn, 81 policies in all, and serves the
// isolation probe's detection stream under every one. Every policy must
// serve every request, and write the same annotated frames as the
// all-host run: the tier layer changes where an API runs, never what it
// computes.
func TestEveryTierPolicyServes(t *testing.T) {
	const shards, requests = 4, 16
	reg := all.Registry()
	cat := hybridCatCached(reg)
	serve := func(pol *isolation.Policy) (map[string][]byte, error) {
		ex, err := isolationServing(reg, cat, pol, shards, requests)
		if err != nil {
			return nil, err
		}
		defer ex.Close()
		return probeOutputs(ex, requests)
	}
	want, err := serve(isolation.None())
	if err != nil {
		t.Fatal(err)
	}
	types := framework.ConcreteTypes()
	tiers := []isolation.Tier{isolation.TierHost, isolation.TierDomain, isolation.TierProcess}
	for n := 0; n < 81; n++ {
		pol := &isolation.Policy{Tiers: map[framework.APIType]isolation.Tier{}}
		for i, c := 0, n; i < len(types); i, c = i+1, c/len(tiers) {
			pol.Tiers[types[i]] = tiers[c%len(tiers)]
		}
		pol.Name = describePolicy(pol)
		got, err := serve(pol)
		if err != nil {
			t.Errorf("%s: %v", pol.Name, err)
			continue
		}
		for path, w := range want {
			if !bytes.Equal(got[path], w) {
				t.Errorf("%s: %s differs from the all-host run", pol.Name, path)
			}
		}
	}
}

// probeOutputs collects the frame each probe request wrote, from whichever
// shard served it.
func probeOutputs(ex *core.Executor, requests int) (map[string][]byte, error) {
	out := make(map[string][]byte, requests)
	for i := 0; i < requests; i++ {
		path := fmt.Sprintf("/srv/out-%d.img", i)
		for id := 0; id < ex.Shards(); id++ {
			if data, err := ex.Shard(id).K.FS.ReadFile(path); err == nil {
				out[path] = data
			}
		}
		if out[path] == nil {
			return nil, fmt.Errorf("no shard wrote %s", path)
		}
	}
	return out, nil
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
