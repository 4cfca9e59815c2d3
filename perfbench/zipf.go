package main

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
)

// zipf-visits: the control path, as the partition-aware row of
// report.MeasurePartition runs it. Zipf-keyed short sessions over 30k users
// land on 8 unprotected shards through sched.PartitionAware with
// hash-partition metadata and placement memory, one visit per
// PartitionServer.ServeVisits call. No codec, IPC, mem or framework code
// runs: executor session and admission bookkeeping, placement and
// placement memory do all the work.
const (
	zipfShards     = 8
	zipfUsers      = 30000
	zipfVisits     = 200000 // visits per pass: the fixed run length
	zipfSkew       = 1.1
	zipfGap        = 6 * time.Microsecond
	zipfWorkingSet = 32 << 10
	zipfCompute    = 2 << 10
	zipfParts      = 64
)

func newZipf(seed int64) (workload, error) {
	return workload{op: "visit", setup: func(t *tracer) (pass, error) { return setupZipf(seed, t) }}, nil
}

type zipfPass struct {
	ex      *core.Executor
	srv     *apps.PartitionServer
	mem     *partition.PlacementMemory
	cost    vclock.CostModel
	visits  []apps.PartitionVisit
	results []apps.PartitionResult
}

func setupZipf(seed int64, t *tracer) (*zipfPass, error) {
	visits := apps.GenPartitionVisitsSpaced(seed, zipfUsers, zipfVisits, zipfSkew, zipfGap)
	ex, err := core.NewExecutor(zipfShards, core.DirectShards(all.Registry()))
	if err != nil {
		return nil, err
	}
	meta := partition.New(partition.Hash, zipfParts, zipfUsers)
	packPreferred(meta, visits, zipfShards)
	mem := partition.NewMemory()
	placer := t.placer(sched.PartitionAware{Meta: meta, Memory: mem, Topo: sched.Topology{ShardsPerSocket: zipfShards / 2}})
	sched.New(ex, sched.Policy{MinShards: zipfShards, MaxShards: zipfShards}, placer)
	cost := vclock.Default()
	srv := apps.NewPartitionServer(ex, apps.PartitionConfig{
		Meta: meta, Memory: mem, Cost: cost,
		WorkingSet: zipfWorkingSet, Compute: zipfCompute, Class: "visit",
	})
	return &zipfPass{ex: ex, srv: srv, mem: mem, cost: cost, visits: visits}, nil
}

// packPreferred gives each partition a preferred shard, packing the
// partitions with the most visits first onto the least-loaded shard, as
// report.MeasurePartition prepares its partition-aware row.
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

func (p *zipfPass) run(t *tracer) []opTime {
	times := make([]opTime, len(p.visits))
	p.results = make([]apps.PartitionResult, len(p.visits))
	for i := range p.visits {
		t.setOp(int64(i))
		start := now()
		r := p.srv.ServeVisits(p.visits[i:i+1], 0, nil)
		times[i] = opTime{start, now()}
		p.results[i] = r[0]
	}
	return times
}

func (p *zipfPass) failed() int {
	n := 0
	for _, r := range p.results {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// virt reports the overhead over a perfectly warm plane: the service time
// every visit would take if no landing were cold.
func (p *zipfPass) virt() virtOut {
	v := executorVirt(p.ex)
	floor := vclock.Duration(len(p.visits)) * (p.cost.APIFixed + p.cost.ComputeCost(zipfCompute, 1))
	v.OverheadPct = overheadPct(v.Service, floor)
	return v
}

func (p *zipfPass) counters() counters {
	c := executorCounters(p.ex)
	c[cWarmHits], c[cColdMisses] = p.mem.Stats()
	return c
}

// visitValue is the FNV-1a digest of (key, seq), the value
// apps.PartitionServer serves for a visit whichever shard runs it.
func visitValue(key uint64, seq int) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range [2]uint64{key, uint64(seq)} {
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * 1099511628211
			x >>= 8
		}
	}
	return h
}

// check: every visit got the digest of its own key and sequence number.
func (p *zipfPass) check() error {
	for i, r := range p.results {
		v := p.visits[i]
		if r.Err != nil {
			return fmt.Errorf("zipf: visit %d: %w", i, r.Err)
		}
		if r.Key != v.Key || r.Value != visitValue(v.Key, v.Seq) {
			return fmt.Errorf("zipf: visit %d served key %d value %#x, want key %d value %#x", i, r.Key, r.Value, v.Key, visitValue(v.Key, v.Seq))
		}
	}
	return nil
}

func (p *zipfPass) corrupt() { p.results[len(p.results)/2].Value ^= 1 }

func (p *zipfPass) close() { p.ex.Close() }
