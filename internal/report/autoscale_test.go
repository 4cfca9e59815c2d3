package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestAutoscaleMeetsFixedPoolTail pins the headline autoscaling claim the
// BENCH_autoscale.json artifact ships: on the ramp, the autoscaled pool
// holds the fixed n=max pool's p99 within 10% while spending fewer
// shard-seconds, and both scale directions actually fire.
func TestAutoscaleMeetsFixedPoolTail(t *testing.T) {
	if testing.Short() {
		t.Skip("full ramp drill")
	}
	results, err := MeasureAutoscale(2, 8, 4, 18, 224)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d rows, want 4", len(results))
	}
	for _, r := range results {
		if r.Served != r.Streams {
			t.Fatalf("%s: served %d/%d", r.Scenario, r.Served, r.Streams)
		}
	}
	auto := results[2]
	if auto.P99VsMax > 1.10 {
		t.Fatalf("autoscaled p99 is %.2fx fixed max (%v vs %v), want <= 1.10x",
			auto.P99VsMax, auto.P99, results[1].P99)
	}
	if auto.ShardSecondsVsMax >= 1.0 {
		t.Fatalf("autoscaled shard-seconds %.2fx fixed max, want < 1x", auto.ShardSecondsVsMax)
	}
	if auto.ScaleUps == 0 || auto.ScaleDowns == 0 {
		t.Fatalf("drill did not scale both ways: ups=%d downs=%d", auto.ScaleUps, auto.ScaleDowns)
	}
	if auto.ControlEvents == 0 {
		t.Fatal("controller recorded no events")
	}
}

// TestWriteAutoscaleJSON checks the benchmark artifact round-trips.
func TestWriteAutoscaleJSON(t *testing.T) {
	results, err := MeasureAutoscale(1, 2, 2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_autoscale.json")
	if err := writeJSON(path, results); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []AutoscaleResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(back, results) {
		t.Fatalf("artifact did not round-trip:\n%+v\nvs\n%+v", back, results)
	}
}
