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

// OverloadResult is one row of the overload drill: a fixed pool serving a
// two-tenant tracking load offered at a multiple of the pool's calibrated
// capacity, under the bounded admission queue and deadline shedding, with
// admissions ordered FIFO (arrival order) or by weighted fair queueing.
// The claims the table defends: the admission bound converts overload into
// bounded-latency goodput plus explicit sheds (no p99 melt), and WFQ makes
// the chatty tenant — not the light one — absorb the rejections.
type OverloadResult struct {
	// Scenario names the configuration ("wfq 4x").
	Scenario string `json:"scenario"`
	// Policy is the admission order: "fifo" or "wfq".
	Policy string `json:"policy"`
	// Factor is the offered load as a multiple of calibrated capacity.
	Factor int `json:"factor"`
	// QueueLimit and Deadline echo the admission policy in force.
	QueueLimit int             `json:"queue_limit"`
	Deadline   vclock.Duration `json:"deadline_ns"`
	// Streams is the client count (heavy tenant + light tenant).
	Streams int `json:"streams"`
	// Offered counts measurement steps offered; Admitted those that ran to
	// completion (the goodput); Dropped those shed by overload control.
	Offered  int `json:"offered"`
	Admitted int `json:"admitted"`
	Dropped  int `json:"dropped"`
	// Rejected/DeadlineShed split the drops by mechanism: refused at the
	// queue bound vs dropped at dequeue past deadline.
	Rejected     uint64 `json:"rejected"`
	DeadlineShed uint64 `json:"deadline_shed"`
	// ShedRate is Dropped over Offered.
	ShedRate float64 `json:"shed_rate"`
	// HeavyGoodput/LightGoodput are per-tenant admitted steps; LightShare
	// is the light tenant's share of total goodput (its offered share is
	// light/(heavy+light) streams; its fair share under equal weights is
	// whatever capacity allows, up to half).
	HeavyGoodput int     `json:"heavy_goodput"`
	LightGoodput int     `json:"light_goodput"`
	LightShare   float64 `json:"light_share"`
	// Jain is Jain's fairness index over per-tenant weighted goodput
	// (goodput/weight): 1.0 is perfectly fair, 1/n is maximally unfair.
	Jain float64 `json:"jain"`
	// P50/P99 are virtual latencies of admitted requests (arrival to
	// completion, queueing included); shed requests record no latency.
	P50 vclock.Duration `json:"p50_ns"`
	P99 vclock.Duration `json:"p99_ns"`
	// P99Vs1x is this row's p99 over the same policy's 1× row.
	P99Vs1x float64 `json:"p99_vs_1x"`
	// Failed counts streams aborted by a non-shed error (0 in a healthy
	// drill).
	Failed int `json:"failed"`
}

// overloadQueueLimit and overloadDeadlineSteps configure the drill's
// admission policy: up to 3 requests deep per shard, and a deadline of 2
// calibrated service times in queue. Together they bound an admitted
// request's latency to ~3 service times no matter the offered load — the
// "graceful" in graceful degradation.
const (
	overloadQueueLimit    = 3
	overloadDeadlineSteps = 2
)

// MeasureOverload serves the two-tenant tracking load at each offered-load
// factor (× calibrated pool capacity), once per admission order. Capacity
// is calibrated by probe runs — one measuring session-init cost, one
// measuring steady-state per-step service time — so the factors mean the
// same thing whatever the framework stack costs. All rows at one factor
// see byte-identical streams.
func MeasureOverload(shards, heavy, light, steps int, factors []int) ([]OverloadResult, error) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	initCost, stepCost, err := CalibrateTracking()
	if err != nil {
		return nil, err
	}

	perShard := (heavy + light) / shards
	if perShard < 1 {
		perShard = 1
	}
	// Arrival offset: every shard serves its sessions' inits serially
	// before the first wave's measurements.
	warm := initCost * vclock.Duration(perShard+1)
	pol := core.AdmissionPolicy{
		QueueLimit: overloadQueueLimit,
		Deadline:   stepCost * overloadDeadlineSteps,
	}

	var out []OverloadResult
	for _, factor := range factors {
		// Offered per-shard rate is perShard/gap steps per virtual second;
		// capacity is 1/stepCost. gap = perShard·stepCost/factor offers
		// exactly factor× capacity.
		gap := stepCost * vclock.Duration(perShard) / vclock.Duration(factor)
		streams := apps.GenTenantStreams(17, heavy, light, steps, gap, warm)
		for _, policy := range []string{"fifo", "wfq"} {
			ex, err := core.NewExecutor(shards, core.ProtectedShards(reg, cat, core.Default()))
			if err != nil {
				return nil, err
			}
			srv := apps.ProvisionTracking(ex)
			for i := 0; i < ex.Shards(); i++ {
				ex.Shard(i).K.Clock.Reset()
			}
			ex.SetAdmission(pol)
			opt := apps.RampOptions{TolerateShed: true}
			if policy == "wfq" {
				// Quantum = 1.25 calibrated service times. The quantum sets
				// how hard the finish clocks bend the arrival order: too
				// small and extreme overload degenerates to FIFO
				// (proportional shedding); above ~4/3 of the per-shard
				// arrival spacing the clocks reorder even an idle pool,
				// wasting inter-arrival slack as idle time and shedding at
				// 1x. 5/4 sits inside that window — at 1x the order is
				// exactly the arrival order (zero cost), under overload the
				// clocks dominate and the split converges on fair share.
				opt.Orderer = &sched.WFQ{Quantum: 5 * stepCost / 4}
			}
			results := srv.ServeRampOpts(streams, opt)
			m := ex.Metrics().Snapshot()

			row := OverloadResult{
				Scenario:     fmt.Sprintf("%s %dx", policy, factor),
				Policy:       policy,
				Factor:       factor,
				QueueLimit:   pol.QueueLimit,
				Deadline:     pol.Deadline,
				Streams:      len(streams),
				Offered:      (heavy + light) * steps,
				Rejected:     m.Rejected,
				DeadlineShed: m.DeadlineShed,
				P50:          ex.Latencies().P50(),
				P99:          ex.Latencies().P99(),
			}
			var goodput [2]int
			for i, r := range results {
				row.Admitted += r.Steps
				row.Dropped += r.Dropped
				if r.Err != nil {
					row.Failed++
				}
				if streams[i].Tenant == 2 {
					goodput[1] += r.Steps
				} else {
					goodput[0] += r.Steps
				}
			}
			row.HeavyGoodput, row.LightGoodput = goodput[0], goodput[1]
			if row.Offered > 0 {
				row.ShedRate = float64(row.Dropped) / float64(row.Offered)
			}
			if row.Admitted > 0 {
				row.LightShare = float64(row.LightGoodput) / float64(row.Admitted)
			}
			row.Jain = jainIndex([]float64{float64(goodput[0]), float64(goodput[1])})
			ex.Close()
			out = append(out, row)
		}
	}

	// Normalize each row's p99 against the same policy's 1× row.
	base := map[string]vclock.Duration{}
	for _, r := range out {
		if r.Factor == 1 {
			base[r.Policy] = r.P99
		}
	}
	for i := range out {
		if b := base[out[i].Policy]; b > 0 {
			out[i].P99Vs1x = float64(out[i].P99) / float64(b)
		}
	}
	return out, nil
}

// CalibrateTracking measures the tracking workload's session-init cost and
// steady-state per-step service time on a one-shard probe pool — the
// capacity unit the drill's load factors are expressed in. The probe runs
// closed-loop (every arrival stamped at zero, so the shard never idles
// waiting for a request): the measurement is pure service cost, not
// arrival spacing. Both probes are deterministic, so calibration never
// varies across runs.
func CalibrateTracking() (initCost, stepCost vclock.Duration, err error) {
	const probeSteps = 64
	crit := func(steps int) (vclock.Duration, error) {
		reg := all.Registry()
		cat := analysis.New(reg, nil).Categorize()
		ex, err := core.NewExecutor(1, core.ProtectedShards(reg, cat, core.Default()))
		if err != nil {
			return 0, err
		}
		defer ex.Close()
		srv := apps.ProvisionTracking(ex)
		ex.Shard(0).K.Clock.Reset()
		probe := apps.GenTrackStreams(7, 1, steps)
		for i := range probe[0].Arrivals {
			probe[0].Arrivals[i] = 0
		}
		srv.ServeStreams(probe)
		return ex.CriticalPath(), nil
	}
	initCost, err = crit(0)
	if err != nil {
		return 0, 0, err
	}
	full, err := crit(probeSteps)
	if err != nil {
		return 0, 0, err
	}
	stepCost = (full - initCost) / probeSteps
	if stepCost <= 0 {
		return 0, 0, fmt.Errorf("report: overload calibration measured non-positive step cost %v", stepCost)
	}
	return initCost, stepCost, nil
}

// jainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over per-tenant
// weighted goodput: 1.0 when every tenant gets goodput proportional to its
// weight, approaching 1/n as one tenant starves the rest.
func jainIndex(xs []float64) float64 {
	var sum, sq float64
	n := 0
	for _, x := range xs {
		sum += x
		sq += x * x
		n++
	}
	if n == 0 || sq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sq)
}

// TableOverload renders the overload drill and optionally writes the rows
// as JSON to jsonPath (the BENCH_overload.json artifact).
func TableOverload(jsonPath string) (string, error) {
	results, err := MeasureOverload(4, 16, 4, 96, []int{1, 2, 4, 10})
	if err != nil {
		return "", err
	}
	t := RenderOverload(results)
	t.Title += " (4 shards, 16 heavy / 4 light streams)"
	return finish(jsonPath, results, t)
}

// RenderOverload renders overload rows as the goodput/shed table, with
// notes on the drill's 4:1 heavy/light demand skew. The rows do not record
// the pool width or the stream counts, so the title leaves them to the
// caller.
func RenderOverload(results []OverloadResult) *Table {
	t := &Table{
		Title:  "Overload: bounded admission + deadline shedding, FIFO vs weighted fair queueing",
		Header: []string{"Scenario", "Offered", "Goodput", "Shed", "Shed%", "Light%", "Jain", "p50", "p99", "p99/1x"},
	}
	for _, r := range results {
		t.Add(r.Scenario, d(r.Offered), d(r.Admitted),
			fmt.Sprintf("%d+%d", r.Rejected, r.DeadlineShed),
			fmt.Sprintf("%.1f%%", 100*r.ShedRate),
			fmt.Sprintf("%.1f%%", 100*r.LightShare),
			f2(r.Jain), r.P50.String(), r.P99.String(), f2(r.P99Vs1x))
	}
	t.Notes = append(t.Notes,
		"Offered load is a multiple of calibrated capacity; the heavy tenant offers 4x the light tenant's rate at equal weight.",
		"Shed column splits queue-bound rejections + deadline drops; both leave zero checkpoint entries (exactly-once preserved).",
		"Jain's index is over per-tenant weighted goodput: 1.00 = each tenant's goodput proportional to its weight.",
		"The queue bound caps admitted-request latency at any factor - overload turns into sheds, not p99 melt.")
	return t
}
