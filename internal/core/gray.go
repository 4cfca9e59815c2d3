package core

import (
	"errors"
	"fmt"

	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// This file is the serving layer's gray-failure machinery: latency-based
// suspicion scoring (a shard that is alive but slow never trips a crash
// window, so the health policy needs a signal built from service times)
// and hedged requests (the tail-latency defense for the detection window a
// scorer necessarily has). Both are zero-cost when disabled: the zero
// GrayPolicy and HedgePolicy leave every admission byte-identical to an
// executor without them.

// GrayPolicy configures latency-based gray-failure detection. Every
// completed invocation folds its virtual service time into a per-shard
// EWMA (weight grayAlpha on the newest sample); once a shard has
// grayMinSamples samples, an EWMA over Ratio × Baseline accrues grayRise
// suspicion per completion (phi-accrual style: evidence accumulates
// instead of a single threshold firing), and at grayDrainScore the shard
// is drained through the same drain→replace→migrate failover path a crash
// window uses. Suspicion decays by grayDecay per healthy completion, so a
// recovering shard is not flapped — the hysteresis half of the policy.
//
// The zero value disables scoring entirely.
type GrayPolicy struct {
	// Ratio is the suspicion threshold: a shard is suspect while its
	// service-time EWMA exceeds Ratio × Baseline. <= 0 disables the scorer
	// (the zero-cost default).
	Ratio float64
	// Baseline is the reference service time, typically calibrated from a
	// fault-free run, so every scoring decision is a pure function of the
	// shard's own completions. <= 0 disables the scorer.
	Baseline vclock.Duration
}

// The scorer's fixed tuning. grayAlpha is heavy enough that a 10x shard is
// obvious within a few samples, light enough that one stall is not a
// verdict; grayDecay below grayRise means a flapping shard still converges
// to a drain, while a shard with one bad window walks back to clean.
const (
	grayAlpha      = 0.4
	grayMinSamples = 4
	grayRise       = 1.0
	grayDecay      = 0.5
	grayDrainScore = 4.0
)

// active reports whether scoring is enabled.
func (p GrayPolicy) active() bool { return p.Ratio > 0 && p.Baseline > 0 }

// grayState is one pool slot's suspicion accumulator, guarded by the
// executor's mu. It belongs to a single incarnation: a replacement shard
// starts clean (drains carry over as the slot's history).
type grayState struct {
	gen     int
	ewma    float64
	samples uint64
	score   float64
	suspect bool
	drains  uint64
}

// GrayScore is one slot's suspicion snapshot — what servers print in the
// end-of-run summary next to the per-class failure tally.
type GrayScore struct {
	// ID is the pool slot; Gen the incarnation the live score belongs to.
	ID  int
	Gen int
	// EWMA is the slot's current service-time estimate; Samples how many
	// completions fed it.
	EWMA    vclock.Duration
	Samples uint64
	// Score is the accrued suspicion; Suspect whether the slot currently
	// exceeds the policy ratio.
	Score   float64
	Suspect bool
	// Drains counts gray drains of this slot across incarnations.
	Drains uint64
}

// SetGray installs the gray-failure scoring policy. Install it before
// serving; the zero policy disables scoring.
func (e *Executor) SetGray(p GrayPolicy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.grayp = p
}

// GrayScores snapshots every live slot's suspicion state, ascending by
// slot id. Slots that never completed a scored invocation report zeroes.
func (e *Executor) GrayScores() []GrayScore {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]GrayScore, len(e.shards))
	for i, sh := range e.shards {
		out[i] = GrayScore{ID: sh.ID, Gen: sh.Gen}
		if g := e.grays[sh.ID]; g != nil {
			out[i].Drains = g.drains
			if g.gen == sh.Gen {
				out[i].EWMA = vclock.Duration(g.ewma)
				out[i].Samples = g.samples
				out[i].Score = g.score
				out[i].Suspect = g.suspect
			}
		}
	}
	return out
}

// observeService folds one completed invocation's virtual service time
// into the shard's suspicion score and, when the score crosses the drain
// threshold, marks the shard lost so its next admission fails over —
// exactly the path a crash window takes, reached from a latency signal.
// Transitions land in the failover event log ("suspect", "suspect-clear",
// "gray-drain") under the same lock as the metrics counters. Called with
// sh.mu held (shard mu orders before executor mu), with the shard clock
// already at end.
func (e *Executor) observeService(sh *Shard, svc, end vclock.Duration) {
	e.mu.Lock()
	pol := e.grayp
	if !pol.active() || svc < 0 {
		e.mu.Unlock()
		return
	}
	g := e.grays[sh.ID]
	if g == nil {
		g = &grayState{gen: sh.Gen}
		e.grays[sh.ID] = g
	}
	if g.gen != sh.Gen {
		// A replacement starts with a clean record; only the slot's drain
		// history survives.
		*g = grayState{gen: sh.Gen, drains: g.drains}
	}
	if g.samples == 0 {
		g.ewma = float64(svc)
	} else {
		g.ewma = grayAlpha*float64(svc) + (1-grayAlpha)*g.ewma
	}
	g.samples++
	if g.samples < grayMinSamples {
		e.mu.Unlock()
		return
	}
	ref := float64(pol.Baseline)
	if g.ewma > pol.Ratio*ref {
		g.score += grayRise
		if !g.suspect {
			g.suspect = true
			e.recordLocked(sh, end, "suspect", fmt.Sprintf("ewma %v over %.1fx ref %v",
				vclock.Duration(g.ewma), pol.Ratio, vclock.Duration(ref)))
		}
	} else if g.score > 0 {
		g.score -= grayDecay
		if g.score <= 0 {
			g.score = 0
			if g.suspect {
				g.suspect = false
				e.recordLocked(sh, end, "suspect-clear", fmt.Sprintf("ewma %v back under %.1fx ref %v",
					vclock.Duration(g.ewma), pol.Ratio, vclock.Duration(ref)))
			}
		}
	}
	reason := ""
	if g.suspect && g.score >= grayDrainScore && !sh.Failed() {
		g.drains++
		reason = fmt.Sprintf("gray failure: service ewma %v over %.1fx reference %v (score %.1f)",
			vclock.Duration(g.ewma), pol.Ratio, vclock.Duration(ref), g.score)
		e.recordLocked(sh, end, "gray-drain", reason)
	}
	e.mu.Unlock()
	if reason != "" {
		sh.fail(reason)
	}
}

// HedgePolicy configures hedged requests: when a stamped (open-loop,
// idempotent) invocation's primary has not completed Delay past its
// arrival in virtual time, a secondary is launched on another shard and
// the first virtual completion wins. Closed-loop invocations — session
// inits, provisioning, legacy Do calls — are exempt, mirroring the
// deadline-shedding rule: they are not idempotent serving requests and
// have no client-side arrival to anchor the delay to.
//
// The zero value disables hedging.
type HedgePolicy struct {
	// Delay is the virtual time past arrival after which a secondary is
	// launched. Derive it from a latency quantile of a calibration run
	// (DeriveHedgeDelay) so only genuine tail requests hedge. 0 disables.
	Delay vclock.Duration
}

// active reports whether hedging is enabled.
func (p HedgePolicy) active() bool { return p.Delay > 0 }

// DeriveHedgeDelay turns a calibration latency distribution into a hedge
// delay: the q-th percentile, floored at min. A p95-derived delay bounds
// hedge extra work near 5% of requests by construction.
func DeriveHedgeDelay(lat *vclock.Latencies, q float64, min vclock.Duration) vclock.Duration {
	d := lat.Percentile(q)
	if d < min {
		d = min
	}
	return d
}

// SetHedge installs the hedged-request policy. Install it before serving;
// the zero policy disables hedging.
func (e *Executor) SetHedge(p HedgePolicy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hedgep = p
}

// hedgeTarget picks the shard a hedge launches on: the live, non-suspect
// shard with the earliest predicted completion — its current clock (or the
// hedge launch time if it is idle past it) plus its service-time estimate
// — provided that prediction beats the primary's completion at pEnd; ties
// go to the lower slot id. Two properties matter here. The profit gate is
// the hedge-storm breaker: when every shard carries the same backlog no
// target is predicted to win, so no hedge launches and hedge work can
// never feed the queueing that would trigger more hedges; a hedge fires
// exactly when the pool is skewed — one shard slow or stuck behind a
// failover — which is when a secondary genuinely rescues the request. And
// picking the argmin rather than a ring successor spreads hedge work
// across the healthy pool: a fixed scan order would concentrate every
// hedge on one victim shard, whose inflated backlog would push its own
// requests past the delay and ripple the load around the ring.
// Deterministic for a fixed pool state, so hedge placement replays.
func (e *Executor) hedgeTarget(primary *Shard, hArr, pEnd vclock.Duration) *Shard {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.shards) <= 1 {
		return nil
	}
	var best *Shard
	var bestEnd vclock.Duration
	for _, sh := range e.shards {
		if sh == primary || sh.Failed() {
			continue
		}
		g := e.grays[sh.ID]
		if g != nil && g.gen == sh.Gen && g.suspect {
			// A suspect shard is a bad secondary: its own service time is
			// the problem a hedge is meant to escape.
			continue
		}
		start := sh.K.Clock.Now()
		if hArr > start {
			start = hArr
		}
		var predicted vclock.Duration
		switch {
		case g != nil && g.gen == sh.Gen && g.samples > 0:
			predicted = vclock.Duration(g.ewma)
		case e.grayp.Baseline > 0:
			predicted = e.grayp.Baseline
		}
		if end := start + predicted; end < pEnd && (best == nil || end < bestEnd) {
			best, bestEnd = sh, end
		}
	}
	return best
}

// shedClass reports whether err is a deliberate admission refusal
// (overload, deadline, quarantine, signature screen) rather than a served
// outcome. A shed hedge never wins the completion race: its early "finish"
// is a refusal, not an answer.
func shedClass(err error) bool {
	return err != nil && (errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrQuarantined) || errors.Is(err, ErrAttackBlocked))
}

// doHedged runs one stamped invocation under the hedge policy: the primary
// runs on the session's shard as usual (failover included) but records no
// latency sample yet; if its virtual completion overran arrival+Delay, a
// secondary runs on another shard with an arrival stamp of arrival+Delay,
// and the winner — first virtual completion, ties to the lower shard id —
// supplies the recorded latency and the returned error. The loser is
// cancelled but stays charged: its shard clock keeps the work, which is
// the extra-work cost the Hedges/HedgeWork counters price. The secondary
// only launches when a target is predicted to beat the primary (see
// hedgeTarget) — overrun alone is not enough, or hedge work would feed
// the very queueing that triggers hedges. Caller holds a worker-pool
// slot.
func (s *Session) doHedged(arrival vclock.Duration, hp HedgePolicy, job func(sh *Shard) error) error {
	e := s.ex
	pArr := arrival
	primary, pEnd, _, pErr := s.runPrimary(&pArr, job, true, false)
	if primary == nil {
		// Failover failed or the session is finished; there is no
		// completion to time.
		return pErr
	}
	if shedClass(pErr) {
		// Refused at admission: nothing ran, nothing to hedge, and — as on
		// the unhedged path — no latency sample.
		return pErr
	}
	if pEnd-arrival <= hp.Delay {
		e.lat.Add(pEnd - arrival)
		return pErr
	}
	hShard, hEnd, hErr, launched := s.runHedge(primary, arrival+hp.Delay, pEnd, job)
	if !launched {
		e.lat.Add(pEnd - arrival)
		return pErr
	}
	hedgeWins := !shedClass(hErr) && (hEnd < pEnd || (hEnd == pEnd && hShard.ID < primary.ID))
	if hedgeWins {
		e.recordEvent(hShard, "hedge-win",
			fmt.Sprintf("session %d beat primary shard %d by %v", s.ID, primary.ID, pEnd-hEnd))
		e.lat.Add(hEnd - arrival)
		return hErr
	}
	e.recordEvent(hShard, "hedge-cancel",
		fmt.Sprintf("session %d primary shard %d won by %v", s.ID, primary.ID, hEnd-pEnd))
	e.lat.Add(pEnd - arrival)
	return pErr
}

// runHedge launches the secondary: a deterministic scan picks a target
// predicted to beat the primary's completion at pEnd, the invocation is
// admitted there with the hedge launch time as its arrival stamp, and a
// target lost mid-hedge fails over and the scan retries. Reports
// launched=false when no profitable target exists — the primary's result
// then stands unhedged.
func (s *Session) runHedge(primary *Shard, hArr, pEnd vclock.Duration, job func(sh *Shard) error) (*Shard, vclock.Duration, error, bool) {
	e := s.ex
	for attempt := 0; attempt < e.Shards(); attempt++ {
		sh := e.hedgeTarget(primary, hArr, pEnd)
		if sh == nil {
			return nil, 0, nil, false
		}
		sh.mu.Lock()
		start := sh.K.Clock.Now()
		e.recordEvent(sh, "hedge",
			fmt.Sprintf("session %d primary shard %d overran +%v", s.ID, primary.ID, hArr))
		arr := hArr
		done, end, _, err := s.runLocked(sh, &arr, job, true, false)
		failed := sh.Failed()
		sh.mu.Unlock()
		if done {
			work := end - start
			if hArr > start {
				work = end - hArr
			}
			e.met.Update(func(m *metrics.Snapshot) { m.HedgeWork += work })
			return sh, end, err, true
		}
		if failed {
			if ferr := e.failover(sh); ferr != nil {
				return nil, 0, nil, false
			}
		}
	}
	return nil, 0, nil, false
}
