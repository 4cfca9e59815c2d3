package apps

import (
	"errors"
	"fmt"
	"time"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/vclock"
)

// trackerBinding names the session-bound Kalman state tensor in the
// executor's durable-handle registry — the thing failover migrates.
const trackerBinding = "kalman-state"

// TrackPoint is one measurement in a tracking stream.
type TrackPoint struct {
	X, Y float64
}

// TrackStream is one client's measurement stream. Tracking is the stateful
// serving workload: every step folds into a Kalman state tensor held on
// the session's shard, so a result depends on every measurement before it
// — exactly the state that must survive shard failover.
type TrackStream struct {
	// User identifies the client.
	User int
	// Start seeds the filter state with the first known position.
	Start TrackPoint
	// Points are the measurements, one per step.
	Points []TrackPoint
	// Arrivals stamps each step's arrival on the virtual timeline.
	Arrivals []vclock.Duration
	// Offset is the wave the stream joins the ramp harness at (ServeRamp);
	// zero means present from the start. ServeStreams ignores it.
	Offset int
	// Tenant and Weight carry the stream's multi-tenant identity into its
	// ServeRamp session (core.Executor.SessionFor, which lifts a weight
	// below 1 to 1). Both zero is the executor's default session, tenant 0
	// at weight 1.
	Tenant int
	Weight int
}

// trackStepGap spaces measurement arrivals within one stream.
const trackStepGap = 80 * time.Microsecond

// genTrackStream builds one deterministic stream: positions follow
// per-user linear motion with a small deterministic wobble, arrivals are
// uniformly spaced starting at the stream's join wave.
func genTrackStream(seed int64, u, steps, offset int) TrackStream {
	st := TrackStream{
		User:     u + 1,
		Start:    TrackPoint{X: float64((int(seed)+u*13)%40) + 5, Y: float64((int(seed)+u*29)%40) + 5},
		Points:   make([]TrackPoint, steps),
		Arrivals: make([]vclock.Duration, steps),
		Offset:   offset,
	}
	vx, vy := float64(u%3)+1, float64(u%5)-2
	for i := 0; i < steps; i++ {
		wobble := float64((u*31+i*17)%7) - 3
		st.Points[i] = TrackPoint{
			X: st.Start.X + vx*float64(i+1) + wobble/2,
			Y: st.Start.Y + vy*float64(i+1) - wobble/3,
		}
		st.Arrivals[i] = vclock.Duration(offset+i+1) * trackStepGap
	}
	return st
}

// GenTrackStreams produces n deterministic measurement streams of the
// given length. Same inputs, same streams — byte for byte.
func GenTrackStreams(seed int64, n, steps int) []TrackStream {
	out := make([]TrackStream, n)
	for u := range out {
		out[u] = genTrackStream(seed, u, steps, 0)
	}
	return out
}

// rampSpread is the wave gap between successive burst joins — about half
// a shard boot (~16 waves), so the ramp climbs at a rate a scaling pool
// can stay ahead of. A ramp faster than boot is unservable by any
// autoscaler; it needs pre-provisioned capacity, which is what the fixed
// n=max comparison row models.
const rampSpread = 8

// GenRampStreams produces the autoscaling drill's load shape: base streams
// run the full length, then burst streams join mid-run — staggered one
// every rampSpread waves — live for a quarter of the run, and leave.
// Joins outpace departures on the way up (sessions accumulate to a
// plateau) and reverse on the way down, so one run exercises both scale
// directions with a drain-out window at the end for the pool to shrink
// through. Deterministic in (seed, base, burst, steps).
func GenRampStreams(seed int64, base, burst, steps int) []TrackStream {
	out := make([]TrackStream, 0, base+burst)
	for u := 0; u < base; u++ {
		out = append(out, genTrackStream(seed, u, steps, 0))
	}
	joinAt := steps / 8
	blen := steps / 4
	if blen < 4 {
		blen = 4
	}
	for j := 0; j < burst; j++ {
		offset := joinAt + j*rampSpread
		if offset+blen > steps {
			offset = steps - blen
		}
		out = append(out, genTrackStream(seed, base+j, blen, offset))
	}
	return out
}

// GenTenantStreams builds the overload drill's two-tenant load shape:
// heavy streams belong to tenant 1 and light streams to tenant 2, both
// weight 1 (equal fair-share entitlement — the skew is in offered load,
// not in weights). Streams interleave in open order so placement spreads
// both tenants across shards, every stream is present from wave 0, and
// arrivals are spaced gap apart with a per-stream stagger inside the gap
// so no two invocations share an arrival stamp, all offset by warm — the
// caller's allowance for session-init service, so a 1× run starts level
// with the shard clocks instead of already backlogged. Deterministic in
// every argument.
func GenTenantStreams(seed int64, heavy, light, steps int, gap, warm vclock.Duration) []TrackStream {
	total := heavy + light
	out := make([]TrackStream, 0, total)
	for u := 0; u < total; u++ {
		st := genTrackStream(seed, u, steps, 0)
		// Even interleave: exactly `light` streams, spread across the open
		// order, go to the light tenant.
		if total > 0 && (u*light)/total != ((u+1)*light)/total {
			st.Tenant, st.Weight = 2, 1
		} else {
			st.Tenant, st.Weight = 1, 1
		}
		stagger := gap * vclock.Duration(u) / vclock.Duration(total)
		for i := range st.Arrivals {
			st.Arrivals[i] = warm + gap*vclock.Duration(i+1) + stagger
		}
		out = append(out, st)
	}
	return out
}

// TrackResult is the final filtered position of one stream.
type TrackResult struct {
	// User echoes the client.
	User int
	// Steps counts measurements successfully folded in.
	Steps int
	// Dropped counts measurements shed by overload control (rejected at
	// the admission bound, or expired past deadline) on runs that tolerate
	// shedding — the filter state never saw these points.
	Dropped int
	// X, Y is the filter's final position estimate — a function of the
	// whole stream, so identical results across a failover prove the
	// migrated state was exact.
	X, Y float64
	// Err is the first error that stopped the stream, if any.
	Err error
}

// TrackingServer is the stateful serving workload: per-session Kalman
// filters whose state tensors live in agent memory on the session's shard
// and are checkpointed through the executor's portable log on every
// stateful call. No per-shard artifacts, so it needs no OnReplace hook;
// replacement shards receive state purely through session migration.
type TrackingServer struct {
	// Ex is the serving pool.
	Ex *core.Executor
}

// ProvisionTracking builds the tracking service on an executor.
func ProvisionTracking(ex *core.Executor) *TrackingServer {
	return &TrackingServer{Ex: ex}
}

// ServeStreams runs every stream to completion and returns final filtered
// positions in stream order. Sessions open in stream order (deterministic
// round-robin placement); each busy shard serves its sessions on one
// goroutine (the first on the calling goroutine, and an idle shard starts
// nothing), interleaving them step by step in session order, so per-shard
// admission order — and therefore every virtual timestamp — is
// deterministic.
func (srv *TrackingServer) ServeStreams(streams []TrackStream) []TrackResult {
	byShard := make([][]int, srv.Ex.Shards())
	sessions := make([]*core.Session, len(streams))
	for i := range streams {
		sessions[i] = srv.Ex.Session()
		id := sessions[i].Shard().ID
		byShard[id] = append(byShard[id], i)
	}
	results := make([]TrackResult, len(streams))
	fanOut(byShard, streamBatch{srv, streams, sessions, results})
	return results
}

// streamBatch is one ServeStreams call, which fanOut serves shard by shard.
type streamBatch struct {
	srv      *TrackingServer
	streams  []TrackStream
	sessions []*core.Session
	results  []TrackResult
}

// serveSlot runs one shard's streams, interleaved step by step in session
// order.
func (b streamBatch) serveSlot(_ int, queue []int) {
	for _, i := range queue {
		b.results[i] = TrackResult{User: b.streams[i].User}
		b.results[i].Err = b.srv.initSession(b.sessions[i], b.streams[i])
	}
	steps := 0
	for _, i := range queue {
		if len(b.streams[i].Points) > steps {
			steps = len(b.streams[i].Points)
		}
	}
	for step := 0; step < steps; step++ {
		for _, i := range queue {
			if b.results[i].Err != nil || step >= len(b.streams[i].Points) {
				continue
			}
			b.results[i].Err = b.srv.serveStep(b.sessions[i], b.streams[i], step, &b.results[i])
		}
	}
}

// Ticker is the control-plane hook ServeRamp invokes at every wave
// barrier. sched.Controller implements it; taking the one-method interface
// here keeps apps free of a sched import (and the harness usable with no
// controller at all).
type Ticker interface{ Tick() }

// AdmissionOrderer reorders one shard slot's wave queue before admission —
// the dequeue-policy hook. Order returns a permutation of entry indices;
// sched.WFQ implements it with per-tenant virtual finish times. The slot
// id keys any per-slot state: each slot's queue drains on its own
// goroutine, so an orderer keyed by slot stays deterministic.
type AdmissionOrderer interface {
	Order(slot int, entries []core.Admission) []int
}

// AdmissionObserver is the optional feedback half of an orderer: after a
// wave's queue is admitted, the wave reports each entry's outcome (in
// served order) so service-charged policies — sched.WFQ advances a
// tenant's virtual finish clock only for requests actually served — can
// account capacity correctly. Shed entries consumed none.
type AdmissionObserver interface {
	Observe(slot int, entries []core.Admission, errs []error)
}

// ServeRamp runs streams wave by wave: wave w serves step w−Offset of
// every stream active at w, with a full barrier between waves. Sessions
// open lazily at their stream's join wave (in stream order, so placement
// is deterministic), finished streams release their sessions via Finish,
// and ctl.Tick — when a controller is attached — runs at each barrier,
// where no invocation is in flight and pool state is a pure function of
// the work done. Within a wave each busy shard slot drains its queue in
// stream order, or in the order orderer (WFQ) gives it when one is set,
// the first slot on the calling goroutine and every other on a goroutine
// of its own. The slot-per-goroutine invariant survives chaos: failover
// replaces a shard in its own slot, and control-plane migrations happen
// only at barriers, so no two goroutines ever contend for one shard's
// clock mid-wave — which is what keeps the controller's barrier reads,
// and its event log, byte-reproducible.
//
// A step the admission policy sheds (core.ErrOverloaded or
// core.ErrDeadlineExceeded) counts in its stream's Dropped and the stream
// carries on; without an admission policy no step is shed.
func (srv *TrackingServer) ServeRamp(streams []TrackStream, ctl Ticker, orderer AdmissionOrderer) []TrackResult {
	results := make([]TrackResult, len(streams))
	sessions := make([]*core.Session, len(streams))
	waves := 0
	for i := range streams {
		if end := streams[i].Offset + len(streams[i].Points); end > waves {
			waves = end
		}
	}
	var queues [][]int // this wave's steps per shard slot, reused across waves
	for w := 0; w < waves; w++ {
		// Open sessions joining at this wave, in stream order.
		for i := range streams {
			if streams[i].Offset != w || sessions[i] != nil {
				continue
			}
			sessions[i] = srv.Ex.SessionFor(streams[i].Tenant, streams[i].Weight)
			results[i] = TrackResult{User: streams[i].User}
			if results[i].Err = srv.initSession(sessions[i], streams[i]); results[i].Err != nil {
				sessions[i].Finish()
			}
		}
		// Queue this wave's steps per shard slot, in stream order.
		for id := range queues {
			queues[id] = queues[id][:0]
		}
		for i := range streams {
			step := w - streams[i].Offset
			if step < 0 || step >= len(streams[i].Points) || results[i].Err != nil {
				continue
			}
			id := sessions[i].Shard().ID
			for len(queues) <= id {
				queues = append(queues, nil)
			}
			queues[id] = append(queues[id], i)
		}
		fanOut(queues, rampWave{srv, streams, sessions, results, w, orderer})
		// Release sessions whose stream just finished or errored out, so
		// the control plane sees their shards as shrink/placement capacity.
		for i := range streams {
			if sessions[i] == nil || sessions[i].Done() {
				continue
			}
			if results[i].Err != nil || w-streams[i].Offset == len(streams[i].Points)-1 {
				sessions[i].Finish()
			}
		}
		if ctl != nil {
			ctl.Tick()
		}
	}
	return results
}

// rampWave is one wave of ServeRamp, which fanOut serves slot by slot.
type rampWave struct {
	srv      *TrackingServer
	streams  []TrackStream
	sessions []*core.Session
	results  []TrackResult
	w        int
	orderer  AdmissionOrderer
}

// serveSlot drains one shard slot's queue for one wave: in stream order
// without an orderer; otherwise the orderer permutes the queue's entries,
// each step runs in the new order, and an AdmissionObserver hears the
// outcomes in that order.
func (r rampWave) serveSlot(slot int, queue []int) {
	if r.orderer == nil {
		for _, i := range queue {
			r.serve(i)
		}
		return
	}
	entries := make([]core.Admission, len(queue))
	for k, i := range queue {
		entries[k] = core.Admission{Session: r.sessions[i], Arrival: r.streams[i].Arrivals[r.w-r.streams[i].Offset]}
	}
	perm := r.orderer.Order(slot, entries)
	ordered := make([]core.Admission, len(entries))
	errs := make([]error, len(entries))
	for k, p := range perm {
		ordered[k], errs[k] = entries[p], r.serve(queue[p])
	}
	if obs, ok := r.orderer.(AdmissionObserver); ok {
		obs.Observe(slot, ordered, errs)
	}
}

// serve runs stream i's step of this wave and folds its outcome into the
// stream's result: a shed step — the admission layer's deliberate refusal
// — counts as a drop, and everything else (including nil) lands in Err.
func (r rampWave) serve(i int) error {
	res := &r.results[i]
	err := r.srv.serveStep(r.sessions[i], r.streams[i], r.w-r.streams[i].Offset, res)
	if errors.Is(err, core.ErrOverloaded) || errors.Is(err, core.ErrDeadlineExceeded) {
		res.Dropped++
	} else {
		res.Err = err
	}
	return err
}

// initSession creates the session's state tensor and seeds it with the
// stream's start position. The seeding correct() is a stateful call, so
// the state is in the portable checkpoint log before the first measurement
// — a session can fail over at any step, including step 0.
func (srv *TrackingServer) initSession(s *core.Session, st TrackStream) error {
	return s.Do(func(sh *core.Shard) error {
		h, _, err := sh.Ex.Call("torch.tensor", framework.Int64(4), framework.Float64(0))
		if err != nil {
			return restartAfter(sh, err)
		}
		if len(h) == 0 {
			return fmt.Errorf("apps: tensor call returned no handle")
		}
		if _, _, err := sh.Ex.Call("cv.KalmanFilter.correct",
			h[0].Value(), framework.Float64(st.Start.X), framework.Float64(st.Start.Y)); err != nil {
			return restartAfter(sh, err)
		}
		s.Bind(trackerBinding, h[0])
		return nil
	})
}

// serveStep folds one measurement into the session's filter with a single
// correct() call. One stateful call per invocation is deliberate: the
// checkpoint log advances per successful call, and failover re-runs whole
// invocations, so keeping the two granularities equal gives exactly-once
// state mutation — a re-run invocation starts from the state the failed
// attempt started from. The bound handle is re-read inside the job because
// a failover (between steps or mid-job) rebinds it to the state
// materialized on the replacement shard.
func (srv *TrackingServer) serveStep(s *core.Session, st TrackStream, step int, res *TrackResult) error {
	p := st.Points[step]
	return s.DoAt(st.Arrivals[step], func(sh *core.Shard) error {
		h, ok := s.Bound(trackerBinding)
		if !ok {
			return fmt.Errorf("apps: session %d has no bound tracker state", s.ID)
		}
		_, plain, err := sh.Ex.Call("cv.KalmanFilter.correct",
			h.Value(), framework.Float64(p.X), framework.Float64(p.Y))
		if err != nil {
			return restartAfter(sh, err)
		}
		if len(plain) >= 2 {
			res.X, res.Y = plain[0].Float, plain[1].Float
		}
		res.Steps++
		return nil
	})
}

// restartAfter revives any crashed agents on the shard (availability
// first, §4.4.2) and passes the original error through.
func restartAfter(sh *core.Shard, err error) error {
	if sh.Rt != nil {
		_ = sh.Rt.RestartDead()
	}
	return err
}
