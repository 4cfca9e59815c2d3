package report

import (
	"fmt"
	"sort"
	"time"

	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/partition"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
	"freepart.dev/freepart/internal/workload"
)

// PartitionResult is one row of the partition-aware data-plane experiment:
// the same Zipf-skewed open-loop visit stream served under different
// placement regimes, then the hot-range melt/rebalance arc. The frontier
// the first three rows trace is the tentpole's claim: placement that
// remembers session keys keeps returning users on their warm shard, so the
// cold-miss re-fault (several times the warm service time) drops out of the
// queueing path and the tail collapses. The last two rows are the drill:
// a naive static range assignment melts one shard under the Zipf head, and
// a mid-window load-median split plus live-session migration sheds the
// backlog without changing a single served byte.
type PartitionResult struct {
	// Scenario is "round-robin", "locality", "partition-aware",
	// "hot-range melt", or "melt + rebalance".
	Scenario string `json:"scenario"`
	// Shards, Users, Visits, Skew describe the run: pool width, Zipf key
	// universe, visit count, and Zipf exponent.
	Shards int     `json:"shards"`
	Users  int     `json:"users"`
	Visits int     `json:"visits"`
	Skew   float64 `json:"skew"`
	// Sessions is how many sessions the run opened (churn plus residents).
	Sessions int `json:"sessions"`
	// Served is how many visits succeeded.
	Served int `json:"served"`
	// WarmHits/ColdMisses are the placement memory's landing counts;
	// WarmRatio is hits over touches.
	WarmHits   uint64  `json:"warm_hits"`
	ColdMisses uint64  `json:"cold_misses"`
	WarmRatio  float64 `json:"warm_ratio"`
	// P50/P95/P99 are per-visit virtual latencies (arrival to completion,
	// queueing included) in nanoseconds.
	P50 vclock.Duration `json:"p50_ns"`
	P95 vclock.Duration `json:"p95_ns"`
	P99 vclock.Duration `json:"p99_ns"`
	// CriticalPath is the max-merged virtual time across shard clocks; RPS
	// is visits per virtual second over it.
	CriticalPath vclock.Duration `json:"critical_path_ns"`
	RPS          float64         `json:"rps"`
	// Splits counts partition splits; Moved the live sessions the drill
	// migrated; SplitKey where the hot range was cut (0 when no drill ran).
	Splits   uint64 `json:"splits"`
	Moved    int    `json:"moved_sessions"`
	SplitKey uint64 `json:"split_key"`
	// ResultsMatchBaseline reports that this row's served values are
	// byte-equal to the no-drill melt row — the drill's safety check.
	// Always true on rows where the check ran; false means the drill
	// changed an answer, which would fail the experiment.
	ResultsMatchBaseline bool `json:"results_match_baseline"`
}

// Benchmark constants: visits compute over a small slice (computeBytes) of
// a large resident working set (workingSetBytes), so a cold landing — the
// whole set re-faulted — costs several warm services. The visit gap offers
// enough load that cold-inflated service turns into visible queueing.
const (
	partitionWorkingSet = 32 << 10
	partitionCompute    = 2 << 10
	partitionGap        = 6 * time.Microsecond
	partitionResidents  = 64
	partitionHashParts  = 64
)

// packPreferred derives each partition's preferred slot from the observed
// per-partition visit mass, greedily packing the heaviest partitions onto
// the least-loaded shards — the cost-aware placement the partition
// metadata exists to enable.
func packPreferred(meta *partition.Meta, visits []apps.PartitionVisit, shards int) {
	mass := make([]int, len(meta.Parts))
	for _, v := range visits {
		if p := meta.PartitionOf(v.Key); p >= 0 {
			mass[p]++
		}
	}
	order := make([]int, len(mass))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if mass[order[i]] != mass[order[j]] {
			return mass[order[i]] > mass[order[j]]
		}
		return order[i] < order[j]
	})
	load := make([]int, shards)
	for _, id := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		meta.Prefer(id, best)
		load[best] += mass[id]
	}
}

// loadMidpoint returns the split key that divides the observed visit mass
// of range [lo, hi) in half: the smallest key m in (lo, hi) with at least
// half the range's visits below it. Returns 0 (caller falls back to the
// key midpoint) when the observed traffic cannot be halved.
func loadMidpoint(visits []apps.PartitionVisit, lo, hi uint64) uint64 {
	counts := map[uint64]int{}
	total := 0
	for _, v := range visits {
		if v.Key >= lo && v.Key < hi {
			counts[v.Key]++
			total++
		}
	}
	if total < 2 {
		return 0
	}
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	acc := 0
	for _, k := range keys {
		acc += counts[k]
		if acc*2 >= total {
			at := k + 1
			if at <= lo || at >= hi {
				return 0
			}
			return at
		}
	}
	return 0
}

// hottestPart returns the partition with the most recorded session visits
// (lowest id on ties).
func hottestPart(meta *partition.Meta) int {
	best := 0
	for i, p := range meta.Parts {
		if p.Sessions > meta.Parts[best].Sessions {
			best = i
		}
	}
	return best
}

// MeasurePartition serves the same Zipf-skewed visit stream (visits visits
// over a users-wide key universe at exponent skew) five times over a
// shards-wide pool split across two sockets:
//
//   - "round-robin": the executor's default placement, key-blind;
//   - "locality": the NUMA-aware placer, which sees session ids but not
//     keys, so a returning user still lands on an arbitrary shard;
//   - "partition-aware": hash partition metadata with load-packed preferred
//     slots plus the placement memory, so returning users land warm;
//   - "hot-range melt": a naive static range assignment (partition i on
//     shard i) that funnels the Zipf head onto shard 0, with the hottest
//     keys held by long-lived resident sessions;
//   - "melt + rebalance": the same melt, with a mid-window drill that
//     splits the hot range at its observed load median, migrates the moved
//     range's live residents to the idle socket through the checkpoint
//     log, and revokes the old owner's stale placement traces.
//
// Every row runs the warm/cold accounting with an armed placement memory,
// so warm-hit ratios compare apples to apples; only placement differs.
// Serving is strictly sequential, so every row replays byte-equal, and the
// drill row's served values are verified byte-equal against the no-drill
// melt row.
func MeasurePartition(shards, users, visits int, skew float64) ([]PartitionResult, error) {
	if shards < 2 || shards%2 != 0 {
		return nil, fmt.Errorf("report: partition experiment needs an even shard count >= 2, got %d", shards)
	}
	if users <= 0 || visits <= 0 {
		return nil, fmt.Errorf("report: partition experiment needs users and visits > 0")
	}
	topo := sched.Topology{ShardsPerSocket: shards / 2}
	cost := vclock.Default()
	stream := apps.GenPartitionVisitsSpaced(5, users, visits, skew, partitionGap)
	streamKeys := make([]uint64, len(stream))
	for i, v := range stream {
		streamKeys[i] = v.Key
	}
	hot := workload.Hottest(streamKeys, partitionResidents)

	type runOut struct {
		row     PartitionResult
		results []apps.PartitionResult
	}
	run := func(scenario string, placer sched.Placer, meta *partition.Meta,
		residents []uint64, drillAt int, drill func(*core.Executor, *partition.Meta, *partition.PlacementMemory, *PartitionResult)) (runOut, error) {
		ex, err := core.NewExecutor(shards, core.DirectShards(all.Registry()))
		if err != nil {
			return runOut{}, err
		}
		defer ex.Close()
		mem := partition.NewMemory()
		if placer != nil {
			if pa, ok := placer.(sched.PartitionAware); ok {
				pa.Meta, pa.Memory, pa.Topo = meta, mem, topo
				placer = pa
			}
			sched.New(ex, sched.Policy{MinShards: shards, MaxShards: shards}, placer)
		}
		srv := apps.NewPartitionServer(ex, apps.PartitionConfig{
			Meta: meta, Memory: mem, Cost: cost,
			WorkingSet: partitionWorkingSet, Compute: partitionCompute, Class: "visit",
		})
		if len(residents) > 0 {
			srv.Resident(residents)
		}
		row := PartitionResult{
			Scenario: scenario, Shards: shards, Users: users, Visits: visits, Skew: skew,
			Sessions: len(stream) + len(residents),
		}
		var hook func()
		if drill != nil {
			hook = func() { drill(ex, meta, mem, &row) }
		}
		results := srv.ServeVisits(stream, drillAt, hook)
		srv.FinishResident()
		served := 0
		for _, r := range results {
			if r.Err == nil {
				served++
			}
		}
		m := ex.Metrics().Snapshot()
		crit := ex.CriticalPath()
		row.Served = served
		row.WarmHits, row.ColdMisses = m.WarmHits, m.ColdMisses
		row.WarmRatio = mem.HitRatio()
		row.P50, row.P95, row.P99 = ex.Latencies().P50(), ex.Latencies().P95(), ex.Latencies().P99()
		row.CriticalPath = crit
		row.Splits = m.PartitionSplits
		if crit > 0 {
			row.RPS = float64(len(stream)) / crit.Seconds()
		}
		return runOut{row: row, results: results}, nil
	}

	// Frontier rows: same stream, pure churn, only placement differs.
	rr, err := run("round-robin", nil, nil, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	loc, err := run("locality", sched.Locality{Topo: topo}, nil, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	hashMeta := partition.New(partition.Hash, partitionHashParts, uint64(users))
	packPreferred(hashMeta, stream, shards)
	aware, err := run("partition-aware", sched.PartitionAware{}, hashMeta, nil, 0, nil)
	if err != nil {
		return nil, err
	}

	// Melt arc: a naive static range assignment (partition i preferred onto
	// shard i) funnels the Zipf head — almost all of the stream — onto
	// shard 0. The spill guard is opened wide so the misconfiguration
	// stands (the guard catching it is the defense, not the experiment).
	meltMeta := func() *partition.Meta {
		m := partition.New(partition.Range, shards, uint64(users))
		for i := 0; i < shards; i++ {
			m.Prefer(i, i)
		}
		return m
	}
	meltPlacer := sched.PartitionAware{SpillThreshold: 4 * partitionResidents}
	melt, err := run("hot-range melt", meltPlacer, meltMeta(), hot, 0, nil)
	if err != nil {
		return nil, err
	}
	drillAt := visits / 2
	drill := func(ex *core.Executor, meta *partition.Meta, mem *partition.PlacementMemory, row *PartitionResult) {
		hp := hottestPart(meta)
		p := meta.Parts[hp]
		at := loadMidpoint(stream[:drillAt], p.Lo, p.Hi)
		dest := shards / 2 // first slot of the idle socket
		row.SplitKey = at
		_, moved, derr := sched.RebalancePartitionAt(ex, meta, mem, topo, cost,
			hp, at, dest, partitionWorkingSet)
		if derr != nil {
			err = derr
			return
		}
		row.Moved = moved
	}
	rebal, err2 := run("melt + rebalance", meltPlacer, meltMeta(), hot, drillAt, drill)
	if err2 != nil {
		return nil, err2
	}
	if err != nil {
		return nil, err
	}

	// The drill is control-plane only: served values must be byte-equal to
	// the no-drill melt run.
	match := len(melt.results) == len(rebal.results)
	if match {
		for i := range melt.results {
			if melt.results[i].Key != rebal.results[i].Key ||
				melt.results[i].Value != rebal.results[i].Value {
				match = false
				break
			}
		}
	}
	melt.row.ResultsMatchBaseline = match
	rebal.row.ResultsMatchBaseline = match
	if !match {
		return nil, fmt.Errorf("report: rebalance drill changed served results")
	}

	return []PartitionResult{rr.row, loc.row, aware.row, melt.row, rebal.row}, nil
}

// TablePartition renders the partition experiment — 8 shards across 2
// sockets, 12k visits over 30k users at Zipf 1.1 — and optionally writes
// the rows as JSON to jsonPath (the BENCH_partition.json artifact).
func TablePartition(jsonPath string) (string, error) {
	results, err := MeasurePartition(8, 30000, 12000, 1.1)
	if err != nil {
		return "", err
	}
	return finish(jsonPath, results, RenderPartition(results))
}

// RenderPartition renders partition rows, the pool width taken from the
// rows.
func RenderPartition(results []PartitionResult) *Table {
	shards := 0
	for _, r := range results {
		shards = r.Shards
	}
	t := &Table{
		Title:  fmt.Sprintf("Partition-aware placement: Zipf visit stream, %d shards / 2 sockets (virtual time)", shards),
		Header: []string{"Scenario", "Served", "Warm", "Cold", "Warm%", "p50", "p95", "p99", "RPS", "Moved", "Split@"},
	}
	for _, r := range results {
		t.Add(r.Scenario, fmt.Sprintf("%d/%d", r.Served, r.Visits),
			d(int(r.WarmHits)), d(int(r.ColdMisses)),
			fmt.Sprintf("%.1f%%", r.WarmRatio*100),
			r.P50.String(), r.P95.String(), r.P99.String(), f1(r.RPS),
			d(r.Moved), d(int(r.SplitKey)))
	}
	t.Notes = append(t.Notes,
		"Every visit computes over a 2 KiB slice of a 32 KiB resident working set; a cold landing re-faults the whole set, several warm services' worth.",
		"All rows run the same armed placement memory; only placement differs, so warm ratios compare apples to apples.",
		"Locality sees session ids, not keys: one-shot churn leaves its open-session load signal blind, so it concentrates on one shard per socket.",
		"The melt rows statically prefer range partition i onto shard i; the Zipf head funnels onto shard 0 until the drill splits the hot range at its observed load median.",
		"The drill migrates the moved range's live resident sessions through the checkpoint log and revokes stale placement traces; served values are byte-equal with or without it.")
	return t
}
