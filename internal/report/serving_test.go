package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestServingScalesWithShards pins the serving layer's headline number:
// virtual-time throughput at 4 shards is at least 2x the 1-shard baseline,
// and every request is served at every shard count.
func TestServingScalesWithShards(t *testing.T) {
	results, err := MeasureServing([]int{1, 4}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d rows", len(results))
	}
	for _, r := range results {
		if r.Served != r.Requests {
			t.Fatalf("%d shards: served %d/%d", r.Shards, r.Served, r.Requests)
		}
		if r.CriticalPath <= 0 {
			t.Fatalf("%d shards: critical path did not advance", r.Shards)
		}
		if r.P50 > r.P95 || r.P95 > r.P99 {
			t.Fatalf("%d shards: percentiles not monotone: %v %v %v", r.Shards, r.P50, r.P95, r.P99)
		}
	}
	if results[1].Speedup < 2.0 {
		t.Fatalf("4-shard speedup %.2fx, want >= 2x (crit path %v vs %v)",
			results[1].Speedup, results[1].CriticalPath, results[0].CriticalPath)
	}
}

// TestServingDeterministic reruns the measurement and demands identical
// rows: virtual-time serving numbers are machine- and schedule-independent.
func TestServingDeterministic(t *testing.T) {
	a, err := MeasureServing([]int{1, 2}, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureServing([]int{1, 2}, 24)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("serving results diverged between identical runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestWriteServingJSON checks the benchmark artifact round-trips.
func TestWriteServingJSON(t *testing.T) {
	results, err := MeasureServing([]int{1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_serving.json")
	if err := writeJSON(path, results); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []ServingResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(back, results) {
		t.Fatalf("artifact did not round-trip:\n%+v\nvs\n%+v", back, results)
	}
}
