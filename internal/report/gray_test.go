package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestGrayFrontier pins the campaign's headline ordering on the standard
// configuration (4 shards, slot 2 at 10x): unmitigated tail latency blows
// up far past fault-free, suspicion-drain alone recovers most of it but
// still pays the detection window, and hedging on top lands near the
// fault-free baseline — at a bounded extra-work price.
func TestGrayFrontier(t *testing.T) {
	rows, err := MeasureGray(4, 64, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	base, unmit, drain, hedged := rows[0], rows[1], rows[2], rows[3]

	for _, r := range rows {
		if r.Served != r.Requests {
			t.Fatalf("%s: served %d/%d — the slow shard is alive, nothing may fail", r.Scenario, r.Served, r.Requests)
		}
		if r.P50 > r.P95 || r.P95 > r.P99 {
			t.Fatalf("%s: percentiles not monotone: %v %v %v", r.Scenario, r.P50, r.P95, r.P99)
		}
	}

	// The frontier: unmitigated >> drain-only > hedge+drain, with hedging
	// within a small multiple of fault-free.
	if unmit.P99 < 10*base.P99 {
		t.Fatalf("unmitigated p99 %v vs fault-free %v: slow shard did not hurt", unmit.P99, base.P99)
	}
	if drain.P99 >= unmit.P99 {
		t.Fatalf("drain-only p99 %v did not improve on unmitigated %v", drain.P99, unmit.P99)
	}
	if hedged.P99 >= drain.P99 {
		t.Fatalf("hedge+drain p99 %v did not improve on drain-only %v", hedged.P99, drain.P99)
	}
	if hedged.P99 > 4*base.P99 {
		t.Fatalf("hedge+drain p99 %v not near fault-free %v", hedged.P99, base.P99)
	}

	// Mitigation provenance: the fault-free row is clean; both mitigated
	// rows detected the slow shard through the latency scorer; only the
	// hedged row spent hedge work, and boundedly so.
	if base.GrayDrains != 0 || base.Hedges != 0 {
		t.Fatalf("fault-free row shows mitigation activity: %+v", base)
	}
	if unmit.Hedges != 0 || unmit.GrayDrains != 0 {
		t.Fatalf("unmitigated row shows mitigation activity: %+v", unmit)
	}
	if drain.GrayDrains == 0 || hedged.GrayDrains == 0 {
		t.Fatalf("mitigated rows never gray-drained: drain=%d hedged=%d", drain.GrayDrains, hedged.GrayDrains)
	}
	if hedged.Hedges == 0 {
		t.Fatal("hedged row launched no hedges")
	}
	if hedged.ExtraWorkFrac <= 0 || hedged.ExtraWorkFrac > 0.5 {
		t.Fatalf("hedge extra-work fraction %.3f out of (0, 0.5]", hedged.ExtraWorkFrac)
	}
	if hedged.HedgeDelay <= 0 {
		t.Fatal("hedged row reports no hedge delay")
	}
}

// TestGrayDeterministic reruns the whole four-scenario measurement —
// calibration, drains, hedge races — and demands identical rows.
func TestGrayDeterministic(t *testing.T) {
	a, err := MeasureGray(4, 48, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureGray(4, 48, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("gray results diverged between identical runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMeasureGrayRejectsBadArgs pins the argument validation.
func TestMeasureGrayRejectsBadArgs(t *testing.T) {
	if _, err := MeasureGray(4, 16, 4, 10); err == nil {
		t.Fatal("slow shard out of range accepted")
	}
	if _, err := MeasureGray(4, 16, -1, 10); err == nil {
		t.Fatal("negative slow shard accepted")
	}
	if _, err := MeasureGray(4, 16, 2, 1); err == nil {
		t.Fatal("factor <= 1 accepted")
	}
}

// TestWriteGrayJSON checks the benchmark artifact round-trips.
func TestWriteGrayJSON(t *testing.T) {
	rows, err := MeasureGray(4, 16, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_gray.json")
	if err := writeJSON(path, rows); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []GrayResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("JSON round-trip diverged:\n%+v\nvs\n%+v", back, rows)
	}
}
