package main

import (
	"fmt"
	"sort"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/vclock"
)

// track-chaos: the stateful write and recovery path. Tracking streams are
// served wave by wave by TrackingServer.ServeRamp on 2 protected shards;
// each step is one cv.KalmanFilter.correct call whose state is
// checkpointed through the portable log. As in the multi-shard chaos soak,
// shard 1's first incarnation crash-loops: its agent restarts until the
// breaker degrades it, the health policy drains the shard, and its
// sessions migrate, state and all, to a replacement.
//
// The soak's background faults on every other shard are left out. With
// them, some seeds fail a step or end a stream at a wrong position with no
// error (README.md, Known defects), and how often a pool drains becomes a
// property of its one fault plan. A pass instead serves trackCells
// independent pools in turn, each with streams derived from the seed, so
// the recovery path runs once per pool.
const (
	trackCells   = 16
	trackShards  = 2
	trackStreams = 4
	trackWaves   = 250 // steps per stream, so waves per cell
	trackCrash   = 1   // the shard slot whose first incarnation crash-loops
)

// cellSeed derives cell k's seed; cell 0 runs the benchmark seed itself.
// Offsetting k past the shard ids keeps cell seeds apart from the
// per-shard seeds chaos.Plan.ForShard derives from the same seed.
func cellSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return chaos.DerivedSeed(seed, trackShards+k)
}

type trackRef struct {
	results []apps.TrackResult
	service vclock.Duration
}

// faultFree serves streams wave by wave on unprotected shards, with no
// faults: the reference every chaos run must reproduce.
func faultFree(streams []apps.TrackStream) (trackRef, error) {
	ex, err := core.NewExecutor(trackShards, core.DirectShards(all.Registry()))
	if err != nil {
		return trackRef{}, err
	}
	defer ex.Close()
	ref := trackRef{results: apps.ProvisionTracking(ex).ServeRamp(streams, nil, nil)}
	for i, r := range ref.results {
		if r.Err != nil {
			return trackRef{}, fmt.Errorf("fault-free stream %d: %w", i, r.Err)
		}
	}
	ref.service = executorVirt(ex).Service
	return ref, nil
}

func newTrack(seed int64) (workload, error) {
	refs := make([]trackRef, trackCells)
	for k := range refs {
		var err error
		if refs[k], err = faultFree(apps.GenTrackStreams(cellSeed(seed, k), trackStreams, trackWaves)); err != nil {
			return workload{}, fmt.Errorf("cell %d: %w", k, err)
		}
	}
	return workload{op: "wave", setup: func(t *tracer) (pass, error) { return setupTrack(seed, t, refs) }}, nil
}

// trackCell is one 2-shard pool of a pass.
type trackCell struct {
	ex      *core.Executor
	srv     *apps.TrackingServer
	streams []apps.TrackStream
	results []apps.TrackResult
	ref     *trackRef
}

type trackPass struct{ cells []*trackCell }

func setupTrack(seed int64, t *tracer, refs []trackRef) (*trackPass, error) {
	reg := t.registry(all.Registry())
	cat := analysis.New(reg, nil).Categorize()
	// A tighter breaker than the chaos default degrades the crash-looping
	// partition before its retry budget runs out; the health policy then
	// drains the degraded shard at its next admission.
	cfg := core.ChaosConfig(nil)
	cfg.BreakerThreshold = 3
	cfg.BreakerWindow = vclock.Duration(200 * time.Millisecond)
	p := &trackPass{}
	for k := range refs {
		s := cellSeed(seed, k)
		root := chaos.Scaled(s, 0) // no background faults
		crash := root
		crash.Mem.FaultProb = 1 // every checked write into an agent space faults
		planOf := func(id, gen int) chaos.Plan {
			if id == trackCrash && gen == 0 {
				return crash.ForShard(id)
			}
			return root.ForShard(id)
		}
		ex, err := core.NewExecutor(trackShards, t.shards(core.ChaosShards(reg, cat, cfg, planOf)))
		if err != nil {
			p.close()
			return nil, err
		}
		ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})
		srv := apps.ProvisionTracking(ex)
		rewind(ex)
		p.cells = append(p.cells, &trackCell{ex: ex, srv: srv, streams: apps.GenTrackStreams(s, trackStreams, trackWaves), ref: &refs[k]})
	}
	return p, nil
}

// waveClock is the Ticker ServeRamp calls at each wave barrier: it closes
// the wave's op interval and moves the tracer to the next wave.
type waveClock struct {
	t     *tracer
	last  int64
	times []opTime
}

func (w *waveClock) Tick() {
	end := now()
	w.times = append(w.times, opTime{w.last, end})
	w.last = end
	w.t.setOp(int64(len(w.times)))
}

func (p *trackPass) run(t *tracer) []opTime {
	w := &waveClock{t: t, times: make([]opTime, 0, trackCells*trackWaves)}
	t.setOp(0)
	for _, c := range p.cells {
		w.last = now()
		c.results = c.srv.ServeRamp(c.streams, w, nil)
	}
	return w.times
}

// failed counts waves in which a step failed. A stream stops at its first
// failed step and is no longer live in later waves.
func (p *trackPass) failed() int {
	n := 0
	for _, c := range p.cells {
		waves := map[int]bool{}
		for i, r := range c.results {
			if r.Err != nil {
				waves[c.streams[i].Offset+r.Steps] = true
			}
		}
		n += len(waves)
	}
	return n
}

// virt reports the median over cells of each cell's latency percentiles,
// and the pass's summed service time over the fault-free runs'.
func (p *trackPass) virt() virtOut {
	var p50, p99, q99 []vclock.Duration
	var v virtOut
	var base vclock.Duration
	for _, c := range p.cells {
		cv := executorVirt(c.ex)
		p50, p99, q99 = append(p50, cv.P50), append(p99, cv.P99), append(q99, cv.QueueP99)
		v.Service += cv.Service
		base += c.ref.service
	}
	v.P50, v.P99, v.QueueP99 = medianDuration(p50), medianDuration(p99), medianDuration(q99)
	v.OverheadPct = overheadPct(v.Service, base)
	return v
}

// medianDuration is the lower median of ds, which it sorts in place.
func medianDuration(ds []vclock.Duration) vclock.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}

func (p *trackPass) counters() counters {
	var c counters
	for _, cell := range p.cells {
		c.add(executorCounters(cell.ex))
	}
	return c
}

// check: every stream's final Kalman position equals the fault-free run's,
// which only exact state migration across the failovers can give. A stream
// that stopped at a failed step (counted by failed) must still match a
// fault-free run of the steps it completed.
func (p *trackPass) check() error {
	for k, c := range p.cells {
		if len(c.results) != len(c.ref.results) {
			return fmt.Errorf("track: cell %d: %d results for %d streams", k, len(c.results), len(c.ref.results))
		}
		for i, r := range c.results {
			want := c.ref.results[i]
			if r.Err != nil {
				st := c.streams[i]
				st.Points, st.Arrivals = st.Points[:r.Steps], st.Arrivals[:r.Steps]
				prefix, err := faultFree([]apps.TrackStream{st})
				if err != nil {
					return fmt.Errorf("track: cell %d stream %d: %w", k, i, err)
				}
				want = prefix.results[0]
			}
			if r.X != want.X || r.Y != want.Y || r.Steps != want.Steps {
				return fmt.Errorf("track: cell %d stream %d ended at %+v, fault-free %+v", k, i, r, want)
			}
		}
	}
	return nil
}

func (p *trackPass) corrupt() { p.cells[len(p.cells)/2].results[0].X += 1e-9 }

func (p *trackPass) close() {
	for _, c := range p.cells {
		c.ex.Close()
	}
}
