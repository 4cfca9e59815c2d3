package report

import (
	"fmt"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/vclock"
)

// GrayResult is one row of the gray-failure experiment: the detection
// service answering the same open-loop request stream with one shard alive
// but ~10x slow, under increasing levels of mitigation. The frontier the
// rows trace is the campaign's claim: unmitigated p99 blows up on queue
// buildup behind the slow shard, suspicion-drain alone recovers after the
// detection window, and hedging on top holds p99 near the fault-free
// baseline for a bounded extra-work fraction.
type GrayResult struct {
	// Scenario is "fault-free", "unmitigated", "drain only", or
	// "hedge + drain".
	Scenario string `json:"scenario"`
	// Shards is the executor's shard count; SlowShard the degraded slot and
	// Factor its service-time multiplier (0 on the fault-free row).
	Shards    int     `json:"shards"`
	SlowShard int     `json:"slow_shard"`
	Factor    float64 `json:"factor"`
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
	// AddedP99 is this row's p99 minus the fault-free row's p99 — the tail
	// cost the mitigation failed to absorb.
	AddedP99 vclock.Duration `json:"added_p99_ns"`
	// CriticalPath is the max-merged virtual time across shard clocks.
	CriticalPath vclock.Duration `json:"critical_path_ns"`
	// GrayDrains counts latency-triggered drains; ShardDrains every drain;
	// Migrations the sessions moved off drained shards.
	GrayDrains  uint64 `json:"gray_drains"`
	ShardDrains uint64 `json:"shard_drains"`
	Migrations  uint64 `json:"migrations"`
	// Hedges/HedgeWins/HedgeCancels count secondary launches and race
	// outcomes; HedgeWork is the virtual time secondaries consumed.
	Hedges       uint64          `json:"hedges"`
	HedgeWins    uint64          `json:"hedge_wins"`
	HedgeCancels uint64          `json:"hedge_cancels"`
	HedgeWork    vclock.Duration `json:"hedge_work_ns"`
	// ExtraWorkFrac is HedgeWork over the stream's fault-free service work
	// (requests x calibrated service time) — the fleet-relative price of
	// hedging.
	ExtraWorkFrac float64 `json:"extra_work_frac"`
	// HedgeDelay is the quantile-derived launch delay in force (0 when
	// hedging is off).
	HedgeDelay vclock.Duration `json:"hedge_delay_ns"`
}

// grayCalibration is what the fault-free run teaches the mitigated runs:
// the per-invocation service-time reference the suspicion scorer compares
// against, and the p95 latency the hedge delay derives from.
type grayCalibration struct {
	baseline vclock.Duration
	hedge    vclock.Duration
}

// MeasureGray serves the same detection request stream four times over a
// shards-wide executor with slot slowShard degraded to factor-times
// service time (alive the whole run: every call completes, no crash
// counter ever trips): fault-free, unmitigated, suspicion-drain only, and
// hedging plus drain. The fault-free run calibrates the scorer's baseline
// and the hedge delay, so mitigation needs no oracle knowledge of which
// shard is slow. Serving is strictly sequential (ServeSeq), making every
// run — hedge races and drain decisions included — a pure function of the
// request list.
func MeasureGray(shards, requests, slowShard int, factor float64) ([]GrayResult, error) {
	if slowShard < 0 || slowShard >= shards {
		return nil, fmt.Errorf("report: slow shard %d out of range for %d shards", slowShard, shards)
	}
	if factor <= 1 {
		return nil, fmt.Errorf("report: slowdown factor %.2f must exceed 1", factor)
	}
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	reqs := apps.GenDetectionRequests(7, requests)
	const seed = 11

	run := func(scenario string, degrade bool, gray core.GrayPolicy, hedge core.HedgePolicy) (GrayResult, *core.Executor, error) {
		planOf := func(id, gen int) chaos.Plan {
			p := chaos.Plan{Seed: chaos.DerivedSeed(seed, id)}
			if degrade && id == slowShard && gen == 0 {
				// Only the original incarnation is gray: a replacement
				// models a fresh machine taking over the slot.
				p = p.WithDegrade(chaos.DegradePlan{Factor: factor})
			}
			return p
		}
		ex, err := core.NewExecutor(shards, core.ChaosShards(reg, cat, core.Default(), planOf))
		if err != nil {
			return GrayResult{}, nil, err
		}
		srv, err := apps.ProvisionDetection(ex)
		if err != nil {
			ex.Close()
			return GrayResult{}, nil, err
		}
		// Steady state: provisioning cost (identical per shard) is not part
		// of the serving window.
		for i := 0; i < ex.Shards(); i++ {
			ex.Shard(i).K.Clock.Reset()
		}
		ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1})
		ex.SetGray(gray)
		ex.SetHedge(hedge)
		results := srv.ServeSeq(reqs)
		crit := ex.CriticalPath()
		m := ex.Metrics().Snapshot()
		r := GrayResult{
			Scenario:     scenario,
			Shards:       shards,
			SlowShard:    slowShard,
			Requests:     len(reqs),
			Served:       apps.Served(results),
			P50:          ex.Latencies().P50(),
			P95:          ex.Latencies().P95(),
			P99:          ex.Latencies().P99(),
			CriticalPath: crit,
			GrayDrains:   m.GrayDrains,
			ShardDrains:  m.ShardDrains,
			Migrations:   m.Migrations,
			Hedges:       m.Hedges,
			HedgeWins:    m.HedgeWins,
			HedgeCancels: m.HedgeCancels,
			HedgeWork:    m.HedgeWork,
			HedgeDelay:   hedge.Delay,
		}
		if degrade {
			r.Factor = factor
		}
		if crit > 0 {
			r.RPS = float64(len(reqs)) / crit.Seconds()
		}
		return r, ex, nil
	}

	// Fault-free run doubles as calibration: an inert scorer (ratio far
	// beyond any healthy deviation) harvests per-shard service-time EWMAs
	// without perturbing anything the row reports.
	calPolicy := core.GrayPolicy{Ratio: 1e9, Baseline: 1}
	base, ex, err := run("fault-free", false, calPolicy, core.HedgePolicy{})
	if err != nil {
		return nil, err
	}
	var cal grayCalibration
	for _, g := range ex.GrayScores() {
		if g.EWMA > cal.baseline {
			cal.baseline = g.EWMA
		}
	}
	// Floor the quantile-derived delay at the calibrated service time: a
	// hedge can never finish faster than one service, so a smaller delay
	// only triggers races the secondary cannot win.
	cal.hedge = core.DeriveHedgeDelay(ex.Latencies(), 95, cal.baseline)
	ex.Close()
	if cal.baseline <= 0 {
		return nil, fmt.Errorf("report: gray calibration produced no service-time baseline")
	}

	scorer := core.GrayPolicy{Ratio: 3, Baseline: cal.baseline}
	unmit, ex, err := run("unmitigated", true, core.GrayPolicy{}, core.HedgePolicy{})
	if err != nil {
		return nil, err
	}
	ex.Close()
	drain, ex, err := run("drain only", true, scorer, core.HedgePolicy{})
	if err != nil {
		return nil, err
	}
	ex.Close()
	hedged, ex, err := run("hedge + drain", true, scorer, core.HedgePolicy{Delay: cal.hedge})
	if err != nil {
		return nil, err
	}
	ex.Close()

	rows := []GrayResult{base, unmit, drain, hedged}
	work := float64(requests) * float64(cal.baseline)
	for i := range rows {
		rows[i].AddedP99 = rows[i].P99 - base.P99
		if work > 0 {
			rows[i].ExtraWorkFrac = float64(rows[i].HedgeWork) / work
		}
	}
	return rows, nil
}

// TableGray renders the gray-failure experiment — 4 shards, slot 2 alive
// but 10x slow — and optionally writes the rows as JSON to jsonPath (the
// BENCH_gray.json artifact).
func TableGray(requests int, jsonPath string) (string, error) {
	results, err := MeasureGray(4, requests, 2, 10)
	if err != nil {
		return "", err
	}
	return finish(jsonPath, results, RenderGray(results))
}

// RenderGray renders gray-failure rows, the pool width and slowdown taken
// from the rows.
func RenderGray(results []GrayResult) *Table {
	shards, factor := 0, 0.0
	for _, r := range results {
		shards, factor = r.Shards, max(factor, r.Factor)
	}
	t := &Table{
		Title:  fmt.Sprintf("Gray failure: detection serving with one shard alive but %gx slow (%d shards, virtual time)", factor, shards),
		Header: []string{"Scenario", "Served", "RPS", "p50", "p95", "p99", "Added p99", "Gray drains", "Hedges", "W/C", "Extra work"},
	}
	for _, r := range results {
		t.Add(r.Scenario, fmt.Sprintf("%d/%d", r.Served, r.Requests), f1(r.RPS),
			r.P50.String(), r.P95.String(), r.P99.String(), r.AddedP99.String(),
			d(int(r.GrayDrains)), d(int(r.Hedges)),
			fmt.Sprintf("%d/%d", r.HedgeWins, r.HedgeCancels),
			fmt.Sprintf("%.1f%%", r.ExtraWorkFrac*100))
	}
	t.Notes = append(t.Notes,
		"The slow shard never crashes: every call completes, so crash-window health checks see a healthy fleet.",
		"The scorer's baseline and the hedge delay are calibrated from the fault-free run — no oracle knowledge of the slow slot.",
		"Drain alone pays the detection window in the tail; hedging covers that window, at the reported extra-work fraction.",
		"Hedge races resolve in virtual time; ties go to the lower shard id, so every run replays byte-equal.")
	return t
}
