package main

import (
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// rewind zeroes every shard clock after provisioning, as
// report.MeasureServing does, so virtual latencies exclude boot and model
// loads: the first requests would otherwise queue behind them.
func rewind(ex *core.Executor) {
	for i := 0; i < ex.Shards(); i++ {
		ex.Shard(i).K.Clock.Reset()
	}
}

// sum is the total of a latency distribution, to within a nanosecond per
// sample (Mean truncates).
func sum(l *vclock.Latencies) vclock.Duration { return l.Mean() * vclock.Duration(l.Len()) }

// executorVirt reads an executor's virtual results. Service time is
// latency minus admission-queue wait, summed over every invocation.
func executorVirt(ex *core.Executor) virtOut {
	lat, q := ex.Latencies(), ex.QueueWaits()
	return virtOut{P50: lat.P50(), P99: lat.P99(), QueueP99: q.P99(), Service: sum(lat) - sum(q)}
}

// overheadPct is how much more virtual time v took than base, in percent.
func overheadPct(v, base vclock.Duration) float64 {
	return 100 * (float64(v)/float64(base) - 1)
}

// executorCounters sums the runtime counters of every incarnation of every
// shard slot of ex, then adds the executor's own.
func executorCounters(ex *core.Executor) counters {
	var c counters
	for id := 0; id < ex.Shards(); id++ {
		for _, sh := range ex.Incarnations(id) {
			if sh.Rt != nil {
				c.addRuntime(sh.Rt.Metrics.Snapshot())
			}
			c.addMem(sh.K)
		}
	}
	m := ex.Metrics().Snapshot()
	c[cDrains], c[cMigrations] = m.ShardDrains, m.Migrations
	c[cCkptBytes] = ex.CheckpointLog().Stats().Bytes
	return c
}

func (c *counters) addRuntime(s metrics.Snapshot) {
	c[cAPICalls] += s.APICalls
	c[cIPCCalls] += s.IPCCalls
	c[cIPCBytes] += s.BytesMoved
	c[cLazy] += s.LazyCopies
	c[cEager] += s.EagerCopies
	c[cPermFlips] += s.PermFlips
	c[cCheckpoints] += s.Checkpoints
	c[cRestarts] += s.Restarts
	c[cRetries] += s.Retries
	c[cInjected] += s.InjectedFaults
}

// addMem adds the loads of every process's current address space in k. A
// restarted agent gets a fresh space, so loads made before a restart are
// not counted.
func (c *counters) addMem(k *kernel.Kernel) {
	for _, p := range k.Processes() {
		st := p.Space().Stats()
		c[cMemLoads] += st.Loads
		c[cMemBytes] += st.BytesLoaded
	}
}
