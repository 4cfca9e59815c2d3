package report

import (
	"fmt"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/vclock"
)

// FailoverResult is one row of the shard-failover experiment: the detection
// service answering the same open-loop request stream, once undisturbed and
// once with one shard killed mid-stream. The delta between the rows is the
// price of a failover — drained shard, migrated sessions, and the failover
// latency landing in the tail percentiles.
type FailoverResult struct {
	// Scenario is "baseline" or "one shard killed".
	Scenario string `json:"scenario"`
	// Shards is the executor's shard count.
	Shards int `json:"shards"`
	// Requests is the stream length; Served is how many succeeded.
	Requests int `json:"requests"`
	Served   int `json:"served"`
	// RPS is requests per virtual second over the critical path.
	RPS float64 `json:"rps"`
	// P50/P95/P99 are per-request virtual latencies (arrival to completion,
	// queueing included) in nanoseconds.
	P50 vclock.Duration `json:"p50_ns"`
	P95 vclock.Duration `json:"p95_ns"`
	P99 vclock.Duration `json:"p99_ns"`
	// AddedP99 is this row's p99 minus the baseline row's p99.
	AddedP99 vclock.Duration `json:"added_p99_ns"`
	// CriticalPath is the max-merged virtual time across shard clocks.
	CriticalPath vclock.Duration `json:"critical_path_ns"`
	// ShardDrains/Migrations/FailedMigrations count failover activity.
	ShardDrains      uint64 `json:"shard_drains"`
	Migrations       uint64 `json:"migrations"`
	FailedMigrations uint64 `json:"failed_migrations"`
}

// MeasureFailover serves the same detection request stream twice over a
// shards-wide executor: a fault-free baseline, then a run where killShard is
// scheduled to die halfway through its baseline serving window. Sessions
// pinned to the dead shard migrate to a replacement through the portable
// checkpoint store; both runs are fully deterministic, so the row delta is
// exactly the cost of losing one shard.
func MeasureFailover(shards, requests, killShard int) ([]FailoverResult, error) {
	if killShard < 0 || killShard >= shards {
		return nil, fmt.Errorf("report: kill shard %d out of range for %d shards", killShard, shards)
	}
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	reqs := apps.GenDetectionRequests(7, requests)

	run := func(kill bool, killAt vclock.Duration) (FailoverResult, vclock.Duration, error) {
		ex, err := core.NewExecutor(shards, core.ProtectedShards(reg, cat, core.Default()))
		if err != nil {
			return FailoverResult{}, 0, err
		}
		defer ex.Close()
		srv, err := apps.ProvisionDetection(ex)
		if err != nil {
			return FailoverResult{}, 0, err
		}
		// Steady state: provisioning cost (identical per shard) is not part
		// of the serving window.
		for i := 0; i < ex.Shards(); i++ {
			ex.Shard(i).K.Clock.Reset()
		}
		ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1})
		if kill {
			ex.ScheduleKill(killShard, killAt)
		}
		results := srv.Serve(reqs)
		crit := ex.CriticalPath()
		m := ex.Metrics().Snapshot()
		r := FailoverResult{
			Scenario:         "baseline",
			Shards:           shards,
			Requests:         len(reqs),
			Served:           apps.Served(results),
			P50:              ex.Latencies().P50(),
			P95:              ex.Latencies().P95(),
			P99:              ex.Latencies().P99(),
			CriticalPath:     crit,
			ShardDrains:      m.ShardDrains,
			Migrations:       m.Migrations,
			FailedMigrations: m.FailedMigrations,
		}
		if kill {
			r.Scenario = "one shard killed"
		}
		if crit > 0 {
			r.RPS = float64(len(reqs)) / crit.Seconds()
		}
		return r, ex.Shard(killShard).K.Clock.Now(), nil
	}

	base, window, err := run(false, 0)
	if err != nil {
		return nil, err
	}
	killed, _, err := run(true, window/2)
	if err != nil {
		return nil, err
	}
	killed.AddedP99 = killed.P99 - base.P99
	return []FailoverResult{base, killed}, nil
}

// TableFailover renders the shard-failover experiment and optionally writes
// the rows as JSON to jsonPath (the BENCH_failover.json artifact).
func TableFailover(requests int, jsonPath string) (string, error) {
	results, err := MeasureFailover(4, requests, 2)
	if err != nil {
		return "", err
	}
	return finish(jsonPath, results, RenderFailover(results))
}

// RenderFailover renders failover rows, the pool width taken from the rows.
func RenderFailover(results []FailoverResult) *Table {
	shards := 0
	for _, r := range results {
		shards = r.Shards
	}
	t := &Table{
		Title:  fmt.Sprintf("Failover: detection serving with one shard killed mid-stream (%d shards, virtual time)", shards),
		Header: []string{"Scenario", "Served", "RPS", "p50", "p95", "p99", "Added p99", "Critical path", "Drains", "Migrations"},
	}
	for _, r := range results {
		t.Add(r.Scenario, fmt.Sprintf("%d/%d", r.Served, r.Requests), f1(r.RPS),
			r.P50.String(), r.P95.String(), r.P99.String(), r.AddedP99.String(),
			r.CriticalPath.String(), d(int(r.ShardDrains)), d(int(r.Migrations)))
	}
	t.Notes = append(t.Notes,
		"The kill fires halfway through the victim shard's baseline serving window.",
		"Sessions on the dead shard migrate to a replacement via the portable checkpoint store; every request is still served.",
		"Added p99 is the failover's tail-latency cost: re-run invocations keep their original arrival stamp.")
	return t
}
