// Package defense is the adaptive isolation control loop: detect →
// contain → escalate → recover. A deterministic, replayable Controller
// watches per-partition attack signals — exploit attempts (blocked or
// not, classified per attack.VulnClass.BlockedBy), domain protection-key
// faults (internal/mem), seccomp violations, crash signatures, and the
// DoS resource watchdog (core.Config.OnAnomaly) that catches the one
// attack shape the domain tier cannot contain — and reacts at reconcile
// barriers on the virtual clock:
//
//   - escalate the offending API type's isolation tier (host → domain →
//     process) by mutating the current isolation.Policy and re-binding
//     every shard through the executor's drain→respawn→migrate machinery
//     (core.Executor.RebindShard over a core.DynamicShards factory);
//   - quarantine the offending tenant at admission (core.AdmissionGate
//     returning core.ErrQuarantined);
//   - arm a per-vulnerability-class signature blocklist so repeat attacks
//     of a sighted class are rejected at the front door (Screen,
//     core.ErrAttackBlocked) without reaching a partition;
//   - anneal escalated types back toward the floor (erim) after a
//     clean window, with hysteresis (the clean window doubles on each
//     re-escalation) so a flapping attacker cannot oscillate the policy.
//
// Every decision lands in a byte-replayable event log (metrics.Log), as
// the autoscaler's do: sightings are buffered between barriers and
// drained in (shard, sequence) order at Tick, so the log is a pure
// function of the per-shard signal streams regardless of goroutine
// interleaving. A nil controller costs nothing: with no sensors armed,
// no gate installed, and a static factory configuration, the serving
// path is bit-identical to the static presets (row TestDefenseZeroCost).
package defense

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// cleanWindow is how much sighting-free virtual time an escalated API type
// must accumulate before one anneal step down, and how long a quarantined
// tenant stays gated before release. It is tiny on purpose: barriers only
// run between serving waves, and each wave is hundreds of microseconds of
// virtual work, so a clean wave is always a full clean window and the
// anneal arc completes inside one campaign.
const cleanWindow = vclock.Duration(10 * time.Microsecond)

// hysteresisFactor multiplies a type's clean window on each re-escalation
// after its first, so an attacker alternating attack and silence pays an
// exponentially growing stay at the strong tier instead of oscillating the
// policy.
const hysteresisFactor = 2

// sighting is one buffered attack signal, recorded by a sensor between
// barriers and processed at the next Tick.
type sighting struct {
	shard, seq int
	cve        string
	class      attack.VulnClass
	api        framework.APIType
	tier       isolation.Tier
	blocked    bool
	signal     string
	tenant     int
}

// screenHit is one buffered front-door rejection.
type screenHit struct {
	cve   string
	class attack.VulnClass
}

// typeState is the per-API-type escalation lattice state.
type typeState struct {
	window      vclock.Duration
	lastSight   vclock.Duration
	escalations int
}

// quarState is one quarantined tenant's record.
type quarState struct {
	since vclock.Duration
	tick  int
}

// Stats summarizes the controller's activity for reports.
type Stats struct {
	Sightings int
	// WatchdogTrips counts the subset of sightings delivered by the DoS
	// resource watchdog (anomaly-hook signals) rather than the exploit
	// sensor.
	WatchdogTrips int
	ScreenHits    int
	Escalations   int
	Anneals       int
	Quarantines   int
	Releases      int
	Rebinds       int
}

// Controller is the adaptive defense control loop. Sensors append
// sightings concurrently (one sequence per shard); all decisions happen
// at Tick, called from serving-wave barriers with no admissions racing.
type Controller struct {
	ex *core.Executor
	// floor is the steady-state policy the controller starts at and anneals
	// back to: erim, the cheap end of the frontier the deployment pays when
	// nobody is attacking.
	floor *isolation.Policy

	mu        sync.Mutex
	tick      int
	cur       *isolation.Policy
	dirty     bool
	events    metrics.Log
	pending   []sighting
	seq       map[int]int
	screens   []screenHit
	blocklist map[attack.VulnClass]bool
	types     map[framework.APIType]*typeState
	quar      map[int]*quarState
	stats     Stats
}

// New builds a controller over an executor (nil is allowed for unit
// tests that drive the lattice without a pool; Tick then re-binds
// nothing). The current policy starts at the floor under the name
// "adaptive".
func New(ex *core.Executor) *Controller {
	floor := isolation.ERIM()
	cur := floor.Clone()
	cur.Name = "adaptive"
	return &Controller{
		ex: ex, floor: floor, cur: cur,
		seq:       make(map[int]int),
		blocklist: make(map[attack.VulnClass]bool),
		types:     make(map[framework.APIType]*typeState),
		quar:      make(map[int]*quarState),
	}
}

// Policy returns a copy of the current adaptive policy — the value a
// core.DynamicShards configuration closure should build shards from, so
// a re-bound shard comes up at the escalated (or annealed) tiers.
func (c *Controller) Policy() *isolation.Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.Clone()
}

// Floor returns the steady-state policy.
func (c *Controller) Floor() *isolation.Policy { return c.floor.Clone() }

// Arm installs the controller's sensors on one shard: the exploit sensor
// wrapping inner (the attack layer's payload handler — nil falls back to
// crash-the-hosting-process, the runtime default), and the DoS resource
// watchdog hook. Arm every initial shard after construction and arm
// replacements from the executor's OnReplace hook, so shards re-bound by
// the controller itself come back instrumented.
func (c *Controller) Arm(sh *core.Shard, inner framework.ExploitFunc) {
	rt := sh.Rt
	if rt == nil {
		return
	}
	rt.OnExploit = c.sensor(sh.ID, rt, inner)
	rt.Config.OnAnomaly = c.anomaly(sh.ID, rt)
}

// sensor wraps the exploit path: the payload executes with exactly the
// privileges the boundary grants it (the controller never blocks what
// the tier does not), then the outcome is classified into a signal —
// protection-key fault, seccomp denial, host or agent crash, or a plain
// exploit report — and buffered as a sighting for the next Tick.
func (c *Controller) sensor(shard int, rt *core.Runtime, inner framework.ExploitFunc) framework.ExploitFunc {
	return func(ctx *framework.Ctx, cve string, payload []byte) error {
		var err error
		if inner != nil {
			err = inner(ctx, cve, payload)
		} else {
			rt.K.Crash(ctx.P, fmt.Sprintf("%s exploited", cve))
			err = fmt.Errorf("%w: %s (agent crashed)", framework.ErrExploited, cve)
		}
		meta, known := attack.EvalCVEByID(cve)
		if !known {
			return err
		}
		tier := rt.Config.Isolation.TierOf(meta.APIType)
		signal := "exploit"
		if _, ok := mem.IsFault(err); ok {
			signal = "key-fault"
		} else if errors.Is(err, kernel.ErrSyscallDenied) {
			signal = "seccomp"
		} else if !rt.Host.Alive() {
			signal = "host-crash"
		} else if ctx.P != nil && !ctx.P.Alive() {
			signal = "agent-crash"
		}
		session := rt.SessionScope()
		c.note(sighting{
			shard: shard, cve: cve, class: meta.Class, api: meta.APIType,
			tier: tier, blocked: meta.Class.BlockedBy(tier), signal: signal,
			tenant: c.tenantOf(session),
		})
		return err
	}
}

// anomaly adapts the core DoS resource watchdog into a sighting: a
// domain- or host-tier invocation that killed the host is a DoS-class
// signal even when no exploit handler ever fired — the channel that
// catches the imshow DoS the domain tier cannot contain.
func (c *Controller) anomaly(shard int, rt *core.Runtime) func(t framework.APIType, api, kind, detail string) {
	return func(t framework.APIType, api, kind, detail string) {
		session := rt.SessionScope()
		c.note(sighting{
			shard: shard, cve: api, class: attack.ClassDoS, api: t,
			tier: rt.Config.Isolation.TierOf(t), blocked: false,
			signal: "watchdog:" + kind,
			tenant: c.tenantOf(session),
		})
	}
}

// tenantOf resolves a session to its tenant (0 when no executor or no
// session scope).
func (c *Controller) tenantOf(session int) int {
	if c.ex == nil || session < 0 {
		return 0
	}
	return c.ex.TenantOf(session)
}

// note buffers one sighting under the shard's next sequence number.
func (c *Controller) note(s sighting) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.seq = c.seq[s.shard]
	c.seq[s.shard]++
	c.pending = append(c.pending, s)
}

// Screen is the front-door signature check: a request known to carry the
// exploit for cve is rejected with core.ErrAttackBlocked once the CVE's
// vulnerability class is on the blocklist (armed at the Tick after the
// class's first sighting). Unknown ids pass — the screen only ever
// matches signatures the controller has actually seen the class of.
func (c *Controller) Screen(cve string) error {
	meta, known := attack.EvalCVEByID(cve)
	if !known {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.blocklist[meta.Class] {
		return nil
	}
	c.screens = append(c.screens, screenHit{cve: cve, class: meta.Class})
	c.stats.ScreenHits++
	return fmt.Errorf("defense: %s matches sighted class %q: %w", cve, meta.Class, core.ErrAttackBlocked)
}

// Gate returns the admission gate enforcing quarantine: requests from a
// quarantined tenant are refused with core.ErrQuarantined. Install it
// with Executor.SetAdmissionGate. The quarantine set only changes at
// Tick, so admission outcomes between barriers are deterministic.
func (c *Controller) Gate() core.AdmissionGate {
	return func(tenant, session int) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if q, ok := c.quar[tenant]; ok {
			return fmt.Errorf("defense: tenant %d quarantined at tick %d: %w", tenant, q.tick, core.ErrQuarantined)
		}
		return nil
	}
}

// typeStateLocked returns (creating if needed) the lattice state for an
// API type. Caller holds c.mu.
func (c *Controller) typeStateLocked(t framework.APIType) *typeState {
	ts := c.types[t]
	if ts == nil {
		ts = &typeState{window: cleanWindow}
		c.types[t] = ts
	}
	return ts
}

// record appends one event. Caller holds c.mu.
func (c *Controller) record(tick int, at vclock.Duration, kind, detail string) {
	c.events = append(c.events, metrics.Event{Tick: tick, At: at, Kind: kind, Detail: detail})
}

// Tick reconciles at a serving-wave barrier stamped `now` on the run's
// virtual timeline: buffered sightings drain in (shard, sequence) order;
// each arms the class blocklist, quarantines its tenant, and escalates
// its API type to the smallest tier that contains its class; then every
// escalated type with a full clean window anneals one tier toward the
// floor, expired quarantines release, and — if the policy changed — every
// shard is re-bound through the failover machinery so the new tiers take
// effect. Call only from barriers with no admissions in flight.
func (c *Controller) Tick(now vclock.Duration) {
	c.mu.Lock()
	c.tick++
	tick := c.tick

	sights := c.pending
	c.pending = nil
	sort.Slice(sights, func(i, j int) bool {
		if sights[i].shard != sights[j].shard {
			return sights[i].shard < sights[j].shard
		}
		return sights[i].seq < sights[j].seq
	})
	screens := c.screens
	c.screens = nil

	for _, h := range screens {
		c.record(tick, now, "screen", fmt.Sprintf("%s rejected at the front door (class %q)", h.cve, h.class))
	}

	for _, s := range sights {
		c.stats.Sightings++
		if strings.HasPrefix(s.signal, "watchdog:") {
			c.stats.WatchdogTrips++
		}
		c.record(tick, now, "sighting", fmt.Sprintf(
			"shard %d seq %d %s class %q api %s tier %s signal %s blocked %v tenant %d",
			s.shard, s.seq, s.cve, s.class, s.api.Long(), s.tier, s.signal, s.blocked, s.tenant))

		// First sighting of a class arms the front-door blocklist: repeat
		// attacks of the class never reach a partition again.
		if !c.blocklist[s.class] {
			c.blocklist[s.class] = true
			c.record(tick, now, "blocklist", fmt.Sprintf("class %q armed after %s", s.class, s.cve))
		}

		// Quarantine the offender. Tenant 0 is the unattributable default
		// (closed-loop and tenantless traffic lands there), so it is never
		// quarantined — gating it would take the whole service down, which
		// is exactly what a DoS attacker wants.
		if s.tenant != 0 {
			if _, ok := c.quar[s.tenant]; !ok {
				c.quar[s.tenant] = &quarState{since: now, tick: tick}
				c.stats.Quarantines++
				c.record(tick, now, "quarantine", fmt.Sprintf("tenant %d after %s (class %q)", s.tenant, s.cve, s.class))
			}
		}

		// Escalation lattice: jump the offending type to the smallest tier
		// that contains the sighted class. Any sighting on the type —
		// blocked or not — resets its clean window.
		ts := c.typeStateLocked(s.api)
		ts.lastSight = now
		if need, cur := s.class.RequiredTier(), c.cur.TierOf(s.api); need > cur {
			c.cur = c.cur.WithTier(s.api, need)
			c.dirty = true
			ts.escalations++
			if ts.escalations > 1 {
				// Hysteresis: a type that needed escalating again pays a
				// doubled clean window before it anneals back down.
				ts.window *= hysteresisFactor
			}
			c.stats.Escalations++
			c.record(tick, now, "escalate", fmt.Sprintf("%s: %s -> %s (%s, class %q, signal %s)",
				s.api.Long(), cur, need, s.cve, s.class, s.signal))
		}
	}

	// Anneal: each escalated type with a full clean window steps one tier
	// toward the floor. One step per window — a type two tiers up takes
	// two clean windows to come all the way home.
	for _, t := range framework.ConcreteTypes() {
		cur, floor := c.cur.TierOf(t), c.floor.TierOf(t)
		if cur <= floor {
			continue
		}
		ts := c.typeStateLocked(t)
		if now-ts.lastSight < ts.window {
			continue
		}
		next := cur - 1
		if next < floor {
			next = floor
		}
		c.cur = c.cur.WithTier(t, next)
		c.dirty = true
		ts.lastSight = now
		c.stats.Anneals++
		c.record(tick, now, "anneal", fmt.Sprintf("%s: %s -> %s after %v clean", t.Long(), cur, next, ts.window))
	}

	// Release expired quarantines, ascending tenant order.
	ids := make([]int, 0, len(c.quar))
	for id := range c.quar {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		q := c.quar[id]
		if now-q.since >= cleanWindow {
			delete(c.quar, id)
			c.stats.Releases++
			c.record(tick, now, "release", fmt.Sprintf("tenant %d after %v quarantined", id, now-q.since))
		}
	}

	dirty := c.dirty
	c.dirty = false
	var desc string
	if dirty {
		desc = policyDesc(c.cur)
	}
	n := 0
	if c.ex != nil {
		n = c.ex.Shards()
	}
	c.mu.Unlock()

	if !dirty || n == 0 {
		return
	}
	// Re-bind every shard onto the changed policy: drain → respawn via
	// the dynamic factory (which re-reads Policy()) → migrate sessions.
	// Ascending slot order, so the executor log's interleaving is fixed.
	for id := 0; id < n; id++ {
		err := c.ex.RebindShard(id, "policy "+desc)
		c.mu.Lock()
		if err != nil {
			c.record(tick, now, "rebind-failed", fmt.Sprintf("shard %d: %v", id, err))
		} else {
			c.stats.Rebinds++
			c.record(tick, now, "rebind", fmt.Sprintf("shard %d -> %s", id, desc))
		}
		c.mu.Unlock()
	}
}

// policyDesc renders a policy's tier assignment in ConcreteTypes order.
func policyDesc(p *isolation.Policy) string {
	parts := make([]string, 0, 4)
	for _, t := range framework.ConcreteTypes() {
		parts = append(parts, fmt.Sprintf("%s=%s", t.Long(), p.TierOf(t)))
	}
	return strings.Join(parts, ",")
}

// Events returns a copy of the decision log. Kinds: sighting, blocklist,
// screen, escalate, anneal, quarantine, release, rebind and rebind-failed.
func (c *Controller) Events() metrics.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.events)
}

// Stats returns a copy of the activity counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
