package report

import (
	"fmt"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
)

// AutoscaleResult is one row of the autoscaling experiment: the stateful
// tracking service under a load ramp (burst streams joining mid-run,
// finishing early), served by a fixed pool or by the control plane scaling
// between MinShards and MaxShards. The claim the table defends: the
// autoscaled pool holds the fixed-max pool's tail latency (±10%) while
// burning materially fewer shard-seconds.
type AutoscaleResult struct {
	// Scenario names the configuration.
	Scenario string `json:"scenario"`
	// MinShards/MaxShards bound the pool; fixed pools have them equal.
	MinShards int `json:"min_shards"`
	MaxShards int `json:"max_shards"`
	// PeakShards is the largest pool observed during the run.
	PeakShards int `json:"peak_shards"`
	// Streams is the client count; Served is how many finished clean.
	Streams int `json:"streams"`
	Served  int `json:"served"`
	// Steps is the total measurement count folded across all streams.
	Steps int `json:"steps"`
	// P50/P95/P99 are per-step virtual latencies (arrival to completion,
	// queueing included) in nanoseconds.
	P50 vclock.Duration `json:"p50_ns"`
	P95 vclock.Duration `json:"p95_ns"`
	P99 vclock.Duration `json:"p99_ns"`
	// P99VsMax is this row's p99 over the fixed n=max row's p99.
	P99VsMax float64 `json:"p99_vs_max"`
	// CriticalPath is the max-merged virtual time across shard clocks.
	CriticalPath vclock.Duration `json:"critical_path_ns"`
	// ShardSeconds integrates pool size over the run — the resource cost.
	ShardSeconds vclock.Duration `json:"shard_seconds_ns"`
	// ShardSecondsVsMax is this row's shard-seconds over the fixed n=max
	// row's.
	ShardSecondsVsMax float64 `json:"shard_seconds_vs_max"`
	// Control-plane activity for the row.
	ScaleUps          uint64 `json:"scale_ups"`
	ScaleDowns        uint64 `json:"scale_downs"`
	Rebalances        uint64 `json:"rebalances"`
	BatchedAdmissions uint64 `json:"batched_admissions"`
	BatchedRequests   uint64 `json:"batched_requests"`
	// ControlEvents is the length of the controller's replayable decision
	// log (0 for fixed pools).
	ControlEvents int `json:"control_events"`
}

// autoscaleRun is one configuration of the ramp drill.
type autoscaleRun struct {
	scenario string
	min, max int
	placer   sched.Placer
	control  bool
}

// MeasureAutoscale serves one deterministic load ramp (base streams for the
// whole run, burst streams joining mid-run and leaving early) under four
// configurations: fixed pools at the bounds, the controller with default
// round-robin placement, and the controller with the NUMA-aware locality
// placer. All four see byte-identical streams; fixed rows run the exact
// legacy admission path (no controller attached, so the control plane costs
// them nothing).
func MeasureAutoscale(min, max, base, burst, steps int) ([]AutoscaleResult, error) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	streams := apps.GenRampStreams(11, base, burst, steps)
	totalSteps := 0
	for _, st := range streams {
		totalSteps += len(st.Points)
	}

	runs := []autoscaleRun{
		{scenario: fmt.Sprintf("fixed n=%d", min), min: min, max: min},
		{scenario: fmt.Sprintf("fixed n=%d", max), min: max, max: max},
		{scenario: fmt.Sprintf("autoscaled %d..%d", min, max), min: min, max: max, control: true},
		{scenario: fmt.Sprintf("autoscaled %d..%d +locality", min, max), min: min, max: max, control: true,
			placer: sched.Locality{Topo: sched.Topology{ShardsPerSocket: 2}, SpillThreshold: 1}},
	}

	var out []AutoscaleResult
	for _, rn := range runs {
		ex, err := core.NewExecutor(rn.min, core.ProtectedShards(reg, cat, core.Default()))
		if err != nil {
			return nil, err
		}
		srv := apps.ProvisionTracking(ex)
		// Steady state: agent-spawn cost of the initial pool (identical per
		// shard) is not part of the serving window. Shards the controller
		// grows later DO pay their boot cost on the timeline — that lag is
		// exactly the autoscaling trade the table measures.
		for i := 0; i < ex.Shards(); i++ {
			ex.Shard(i).K.Clock.Reset()
		}
		var ctl *sched.Controller
		var ticker apps.Ticker
		var batcher apps.AdmissionBatcher
		if rn.control {
			ctl = sched.New(ex, sched.DefaultPolicy(rn.min, rn.max), rn.placer)
			ticker = ctl
			batcher = ctl.Batch()
		}
		results := srv.ServeRamp(streams, ticker, batcher)
		crit := ex.CriticalPath()
		m := ex.Metrics().Snapshot()
		row := AutoscaleResult{
			Scenario:          rn.scenario,
			MinShards:         rn.min,
			MaxShards:         rn.max,
			PeakShards:        ex.Shards(),
			Streams:           len(streams),
			Served:            servedStreams(results),
			Steps:             servedSteps(results),
			P50:               ex.Latencies().P50(),
			P95:               ex.Latencies().P95(),
			P99:               ex.Latencies().P99(),
			CriticalPath:      crit,
			ShardSeconds:      ex.ShardSeconds(crit),
			ScaleUps:          m.ScaleUps,
			ScaleDowns:        m.ScaleDowns,
			Rebalances:        m.Rebalances,
			BatchedAdmissions: m.BatchedAdmissions,
			BatchedRequests:   m.BatchedRequests,
		}
		if ctl != nil {
			row.PeakShards = ctl.PeakShards()
			row.ControlEvents = len(ctl.Events())
		}
		ex.Close()
		out = append(out, row)
	}

	// Normalize against the fixed n=max row (index 1).
	maxRow := out[1]
	for i := range out {
		if maxRow.P99 > 0 {
			out[i].P99VsMax = float64(out[i].P99) / float64(maxRow.P99)
		}
		if maxRow.ShardSeconds > 0 {
			out[i].ShardSecondsVsMax = float64(out[i].ShardSeconds) / float64(maxRow.ShardSeconds)
		}
	}
	return out, nil
}

// servedStreams counts streams that finished without error.
func servedStreams(results []apps.TrackResult) int {
	n := 0
	for _, r := range results {
		if r.Err == nil {
			n++
		}
	}
	return n
}

// servedSteps sums measurements folded across all streams.
func servedSteps(results []apps.TrackResult) int {
	n := 0
	for _, r := range results {
		n += r.Steps
	}
	return n
}

// TableAutoscale renders the autoscaling experiment and optionally writes
// the rows as JSON to jsonPath (the BENCH_autoscale.json artifact).
func TableAutoscale(jsonPath string) (string, error) {
	results, err := MeasureAutoscale(2, 8, 4, 18, 224)
	if err != nil {
		return "", err
	}
	return finish(jsonPath, results, RenderAutoscale(results))
}

// RenderAutoscale renders autoscaling rows as the ramp table.
func RenderAutoscale(results []AutoscaleResult) *Table {
	t := &Table{
		Title:  "Autoscaling: stateful tracking under a load ramp (burst joins mid-run, leaves early; virtual time)",
		Header: []string{"Scenario", "Peak", "Served", "p50", "p95", "p99", "p99/max", "Shard-sec", "Cost/max", "Up/Down/Rebal", "Batches"},
	}
	for _, r := range results {
		t.Add(r.Scenario, d(r.PeakShards), fmt.Sprintf("%d/%d", r.Served, r.Streams),
			r.P50.String(), r.P95.String(), r.P99.String(), f2(r.P99VsMax),
			r.ShardSeconds.String(), f2(r.ShardSecondsVsMax),
			fmt.Sprintf("%d/%d/%d", r.ScaleUps, r.ScaleDowns, r.Rebalances),
			d(int(r.BatchedAdmissions)))
	}
	t.Notes = append(t.Notes,
		"All rows serve byte-identical streams; fixed pools run with no controller attached (zero control-plane cost).",
		"Shard-seconds integrate pool size over the virtual timeline — latency parity at a lower integral is the win.",
		"The autoscaled rows grow on queue-wait pressure as the burst joins and shrink (drain + migrate, no corpse) after it leaves.",
		"+locality maps shards onto 2-shard sockets; cross-socket migrations pay the interconnect cost model.")
	return t
}
