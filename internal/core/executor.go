package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/object"
	"freepart.dev/freepart/internal/vclock"
)

// Shard is one runtime shard of the concurrent serving layer: its own
// kernel (hence its own virtual clock, filesystem, and processes) plus a
// Caller running on it — a full FreePart runtime for protected shards or a
// Direct monolith for unprotected ones. Sessions pinned to a shard execute
// serially on it, so the shard's framework state machine, agent tables,
// and temporal permissions never interleave across tenants.
type Shard struct {
	// ID is the shard's index in its executor, fixed at construction. A
	// replacement shard inherits the id of the shard it replaces.
	ID int
	// Gen is the incarnation number for this id: 0 for the original shard,
	// incremented each time failover replaces it.
	Gen int
	// K is the shard-private kernel.
	K *kernel.Kernel
	// Ex is the caller running on this shard.
	Ex Caller
	// Rt is set when Ex is a FreePart runtime; nil for direct shards.
	Rt *Runtime
	// JoinedAt is the virtual time the shard joined the serving pool: zero
	// for shards built at construction, the scale-up decision time for
	// shards the control plane grew. A failover replacement inherits its
	// predecessor's JoinedAt (same pool slot, same lifetime). Written
	// before the shard is published to the pool, immutable afterwards.
	JoinedAt vclock.Duration

	// retiredAt is set (under the executor's mu) when the control plane
	// scales the shard in; zero for live shards and failover corpses.
	retiredAt vclock.Duration

	mu sync.Mutex
	// ends is the completion-stamp ring behind the virtual queue-depth
	// signal (see queuedAt); only populated while an admission policy is
	// active, so the unbounded path never pays for it.
	ends []vclock.Duration

	// Health state, guarded by hm (not mu: observers must not block behind a
	// running job).
	hm       sync.Mutex
	failed   bool
	reason   string
	failures int
}

// Clock returns the shard's virtual clock.
func (s *Shard) Clock() *vclock.Clock { return s.K.Clock }

// Chaos returns the fault-injection engine bound to this shard, nil when
// the shard runs without chaos (or is a direct shard).
func (s *Shard) Chaos() *chaos.Engine {
	if s.Rt != nil {
		return s.Rt.Config.Chaos
	}
	return nil
}

// Failed reports whether the shard has been marked lost (killed or drained
// by the health policy). A failed shard admits no further work.
func (s *Shard) Failed() bool {
	s.hm.Lock()
	defer s.hm.Unlock()
	return s.failed
}

// FailReason returns why the shard was marked lost.
func (s *Shard) FailReason() string {
	s.hm.Lock()
	defer s.hm.Unlock()
	return s.reason
}

// fail marks the shard lost; returns false if it already was.
func (s *Shard) fail(reason string) bool {
	s.hm.Lock()
	defer s.hm.Unlock()
	if s.failed {
		return false
	}
	s.failed = true
	s.reason = reason
	return true
}

// recordFailure counts a crash-class failure and returns the incarnation's
// total so far.
func (s *Shard) recordFailure() int {
	s.hm.Lock()
	defer s.hm.Unlock()
	s.failures++
	return s.failures
}

// workerSem is a resizable counting semaphore bounding concurrent
// admissions — the executor's worker pool. Capacity tracks the shard count
// as the control plane grows and shrinks the pool; shrinking below the
// in-use count simply blocks new admissions until enough slots drain.
type workerSem struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
}

func newWorkerSem(n int) *workerSem {
	s := &workerSem{cap: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *workerSem) acquire() {
	s.mu.Lock()
	for s.used >= s.cap {
		s.cond.Wait()
	}
	s.used++
	s.mu.Unlock()
}

func (s *workerSem) release() {
	s.mu.Lock()
	s.used--
	s.cond.Signal()
	s.mu.Unlock()
}

func (s *workerSem) setCap(n int) {
	s.mu.Lock()
	s.cap = n
	s.cond.Broadcast()
	s.mu.Unlock()
}

// ShardFactory builds the id-th shard of an executor. Factories must be
// deterministic: shard id in, identical shard out, so an executor built
// twice from the same factory behaves identically — and so a replacement
// shard built after failover is indistinguishable from a fresh one.
type ShardFactory func(id int) (*Shard, error)

// ProtectedShards returns a factory producing FreePart-protected shards:
// each shard is a fresh kernel with a full runtime (host, agents, policies)
// configured by cfg. The syscall policies are derived once, at the first
// shard, and every shard and replacement installs them read-only.
//
// Chaos is split per shard: the first shard 0 keeps cfg.Chaos itself (so a
// one-shard executor is byte-identical to the synchronous path, injection
// log included), and every other shard — replacements included — gets its
// own engine seeded by Plan.ForShard(id). One engine never serves two
// kernel clocks (Engine.Bind panics on rebinding), which keeps concurrent
// multi-shard chaos runs byte-replayable per shard.
func ProtectedShards(reg *framework.Registry, cat *analysis.Categorization, cfg Config) ShardFactory {
	var rootEngineUsed atomic.Bool
	policies := &shardPolicies{reg: reg, cat: cat}
	return func(id int) (*Shard, error) {
		c := cfg
		if c.Chaos != nil && !(id == 0 && rootEngineUsed.CompareAndSwap(false, true)) {
			c.Chaos = chaos.New(c.Chaos.Plan().ForShard(id))
		}
		return protectedShard(id, reg, cat, c, policies)
	}
}

// ChaosShards returns a protected-shard factory with an explicit per-shard,
// per-generation chaos plan — the hook tests use to force exactly one shard
// into a crash loop while the others see background-intensity faults. It is
// DynamicShards over the fixed configuration cfg, so planOf sees gen 0 for
// the original shard and gen n for the n-th replacement: a crash-looping
// machine can be modeled as replaced by a healthy one, which is what breaks
// the crash→drain→crash cycle.
func ChaosShards(reg *framework.Registry, cat *analysis.Categorization, cfg Config, planOf func(id, gen int) chaos.Plan) ShardFactory {
	return DynamicShards(reg, cat, func() Config { return cfg }, planOf)
}

// DynamicShards returns a protected-shard factory whose configuration is
// re-derived on every build: cfgOf is consulted each time a shard (or a
// replacement) is constructed, so a shard drained and respawned through
// the failover machinery comes back under whatever configuration — in
// particular, whatever isolation policy — is current at respawn time.
// This is the re-bind hook the adaptive defense controller escalates and
// anneals through (RebindShard). planOf, when non-nil, supplies the chaos
// plan of each shard id and generation: the factory counts how many times
// each id was built, and build order per id is deterministic, so the gen
// sequence replays exactly. Syscall policies are derived at the first
// build that restricts syscalls and shared by every later one; a
// configuration with other AppAPIs derives again (isolation policy, which
// re-binds switch, does not enter the derivation). With a cfgOf that
// always returns the same configuration and a nil planOf, the factory
// builds the shards ProtectedShards builds over it (replay row
// TestDefenseZeroCost).
func DynamicShards(reg *framework.Registry, cat *analysis.Categorization, cfgOf func() Config, planOf func(id, gen int) chaos.Plan) ShardFactory {
	var mu sync.Mutex
	gens := make(map[int]int)
	policies := &shardPolicies{reg: reg, cat: cat}
	return func(id int) (*Shard, error) {
		mu.Lock()
		gen := gens[id]
		gens[id]++
		mu.Unlock()
		c := cfgOf()
		if planOf != nil {
			c.Chaos = chaos.New(planOf(id, gen))
		}
		return protectedShard(id, reg, cat, c, policies)
	}
}

// protectedShard boots shard id: a fresh kernel running a full runtime
// configured by cfg, its agents installing the syscall policies its
// factory derived once for every shard it builds.
func protectedShard(id int, reg *framework.Registry, cat *analysis.Categorization, cfg Config, policies *shardPolicies) (*Shard, error) {
	k := kernel.New()
	rt, err := newRuntime(k, reg, cat, cfg, policies.of(cfg))
	if err != nil {
		return nil, fmt.Errorf("core: shard %d: %w", id, err)
	}
	return &Shard{ID: id, K: k, Ex: rt, Rt: rt}, nil
}

// DirectShards returns a factory producing unprotected shards: each shard
// is a fresh kernel running a Direct monolith. The unprotected comparison
// point for serving-layer scaling numbers.
func DirectShards(reg *framework.Registry) ShardFactory {
	return func(id int) (*Shard, error) {
		k := kernel.New()
		return &Shard{ID: id, K: k, Ex: NewDirect(k, reg)}, nil
	}
}

// HealthPolicy configures shard-level failure handling, lifting the PR-1
// per-partition supervision policy to whole shards. The zero value disables
// health-driven drains; explicit kills (KillShard/ScheduleKill) work either
// way.
type HealthPolicy struct {
	// FailThreshold drains a shard after this many crash-class invocation
	// failures (agent crash, dead peer, timeout, dead host) over its
	// incarnation's lifetime. 0 disables the failure counter.
	FailThreshold int
	// DrainOnDegrade drains a shard as soon as its runtime's circuit
	// breaker has demoted any partition to in-host execution: replacement
	// restores full isolation instead of serving without it indefinitely.
	DrainOnDegrade bool
}

// Executor is the concurrent serving layer: a bounded worker pool over n
// runtime shards. Sessions are assigned to shards round-robin; at most n
// pipeline invocations run concurrently (one per shard worker), and
// invocations pinned to the same shard serialize on it. Stateful-API
// state is written through to a portable checkpoint log so sessions
// survive the loss of their shard: a failed shard is drained, its sessions
// migrate to a replacement with their checkpointed state materialized
// there, and serving continues.
//
// With n = 1 and no faults the executor degenerates to the synchronous
// path: one shard, one worker, every invocation in submission order —
// byte-identical outputs to calling the runtime directly.
type Executor struct {
	ckpt    *object.CheckpointLog
	factory ShardFactory
	sem     *workerSem
	lat     *vclock.Latencies
	queue   *vclock.Latencies
	met     *metrics.Counters

	// failMu serializes whole pool-shape operations — failover (drain +
	// replace + migrate) and control-plane grow/shrink/rebalance — so two
	// sessions observing one dead shard produce one replacement, and a
	// scale never races a failover on the same slot.
	failMu sync.Mutex

	mu     sync.Mutex
	shards []*Shard
	// sessions holds the unfinished sessions by id; Finish removes its
	// session. nextID counts opens and is the next session's id, so ids,
	// round-robin slots and hook arguments follow open order whichever
	// sessions have finished.
	sessions map[int]*Session
	nextID   int
	// openPool is the placement snapshot open hands to the hooks, refilled
	// in place for every open.
	openPool  []PlacementInfo
	retired   []*Shard
	killAt    map[int]vclock.Duration
	events    metrics.Log
	policy    HealthPolicy
	admit     AdmissionPolicy
	gate      AdmissionGate
	onReplace func(*Shard) error
	place     func(session int, pool []PlacementInfo) int
	placeKey  func(session int, key uint64, pool []PlacementInfo) int
	// pinned is the incremental unfinished-session count per pool slot. It
	// replaces the per-open scan over every session — at tens of thousands
	// of sessions the scan made each open O(sessions) — and is maintained
	// at open, finish, and migrate under mu, always matching what the scan
	// would count.
	pinned map[int]int
	loads  map[int]*shardLoad
	grayp  GrayPolicy
	hedgep HedgePolicy
	grays  map[int]*grayState
}

// shardLoad accumulates per-pool-slot (shard id, across incarnations)
// admission signals, guarded by the executor's mu.
type shardLoad struct {
	waitSum vclock.Duration
	waits   uint64
	jobs    uint64
}

// PlacementInfo describes one live shard to a placement hook: enough for a
// cost model to score it without reaching back into the executor.
type PlacementInfo struct {
	// ID is the shard's pool slot.
	ID int
	// Gen is the slot's current incarnation — a cache-affinity placer
	// needs it because a replacement shard's page cache is cold even
	// though the slot id is unchanged.
	Gen int
	// Sessions is how many unfinished sessions are pinned to the shard.
	Sessions int
	// Clock is the shard's current virtual time.
	Clock vclock.Duration
}

// ShardLoad is the per-slot load signal the control plane reconciles on:
// cumulative admission-queue wait and job counts across every incarnation
// of the slot (so a failover does not reset the signal), plus pool facts.
type ShardLoad struct {
	// ID is the pool slot; Gen the current incarnation.
	ID  int
	Gen int
	// Sessions is how many unfinished sessions are pinned to the shard.
	Sessions int
	// Clock is the shard's current virtual time; JoinedAt when the slot
	// joined the pool.
	Clock    vclock.Duration
	JoinedAt vclock.Duration
	// WaitSum and Waits accumulate admission-queue delay: WaitSum/Waits is
	// the slot's lifetime mean wait. The control plane diffs successive
	// readings to get per-window means.
	WaitSum vclock.Duration
	Waits   uint64
	// Jobs counts completed invocations on the slot.
	Jobs uint64
	// Suspicion and Suspect expose the gray-failure scorer's view of the
	// current incarnation (zero when scoring is disabled), so the control
	// plane's barrier log records which shards were under suspicion.
	Suspicion float64
	Suspect   bool
}

// NewExecutor builds an executor over n shards produced by factory. The
// factory is retained: failover calls it again to build replacement shards.
func NewExecutor(n int, factory ShardFactory) (*Executor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: executor needs n > 0 shards")
	}
	e := &Executor{
		ckpt:     object.NewCheckpointLog(),
		factory:  factory,
		sem:      newWorkerSem(n),
		lat:      &vclock.Latencies{},
		queue:    &vclock.Latencies{},
		met:      metrics.New(),
		killAt:   make(map[int]vclock.Duration),
		sessions: make(map[int]*Session),
		pinned:   make(map[int]int),
		loads:    make(map[int]*shardLoad),
		grays:    make(map[int]*grayState),
	}
	for i := 0; i < n; i++ {
		// No hook is installed yet, and a shard built at time zero joins
		// the timeline at its own boot cost: provisioning is the factory
		// call and the shared checkpoint log.
		sh, err := e.provision(i, 0, 0, 0)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.shards = append(e.shards, sh)
	}
	return e, nil
}

// Shards returns the current shard count. The control plane can change it
// at reconcile points (Grow/Shrink); with no control plane attached it is
// fixed at construction.
func (e *Executor) Shards() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.shards)
}

// Shard returns the current incarnation serving shard id i.
func (e *Executor) Shard(i int) *Shard {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shards[i]
}

// Incarnations returns every incarnation of shard id in generation order:
// retired (drained) shards first, then the current one. Tests use it to
// compare per-incarnation chaos injection logs across replays.
func (e *Executor) Incarnations(id int) []*Shard {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*Shard
	for _, sh := range e.retired {
		if sh.ID == id {
			out = append(out, sh)
		}
	}
	if id < len(e.shards) {
		out = append(out, e.shards[id])
	}
	return out
}

// CheckpointLog returns the portable checkpoint log shared by all shards.
func (e *Executor) CheckpointLog() *object.CheckpointLog { return e.ckpt }

// Metrics returns the executor's serving-layer counters (ShardDrains,
// Migrations, FailedMigrations; runtime-level counters stay per shard).
func (e *Executor) Metrics() *metrics.Counters { return e.met }

// Latencies returns the per-invocation virtual latency distribution.
// Samples run from each request's arrival stamp to completion, so they
// include admission-queue wait, not just service time.
func (e *Executor) Latencies() *vclock.Latencies { return e.lat }

// QueueWaits returns the distribution of admission-queue waits alone — the
// virtual time requests spent queued behind earlier work on their shard.
func (e *Executor) QueueWaits() *vclock.Latencies { return e.queue }

// SetHealthPolicy installs the shard health policy. Set it before serving;
// the zero policy disables health-driven drains.
func (e *Executor) SetHealthPolicy(p HealthPolicy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.policy = p
}

// SetOnReplace installs a provisioning hook run on every replacement shard
// before it starts serving — the serving app reloads per-shard artifacts
// (e.g. its model) here.
func (e *Executor) SetOnReplace(fn func(*Shard) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onReplace = fn
}

// ScheduleKill arranges for shard id to be killed at the given virtual time
// on its own clock. The kill fires at the first admission at or after that
// time, which makes it deterministic: per-shard admission order is FIFO and
// the shard clock is a pure function of the work it ran. One schedule fires
// at most once; the replacement shard is not re-killed.
func (e *Executor) ScheduleKill(id int, at vclock.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.killAt[id] = at
}

// KillShard marks the current incarnation of shard id lost immediately and
// crashes its processes. Sessions pinned to it migrate at their next
// invocation. Must not be called from inside a job running on that shard.
func (e *Executor) KillShard(id int, reason string) {
	sh := e.Shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e.killShardLocked(sh, reason)
}

// killShardLocked marks sh lost and crashes its processes. Caller holds
// sh.mu (or otherwise guarantees no job is running on sh).
func (e *Executor) killShardLocked(sh *Shard, reason string) {
	if !sh.fail(reason) {
		return
	}
	// The whole simulated machine behind the shard dies with it.
	for _, p := range sh.K.Processes() {
		if p.Alive() {
			sh.K.Crash(p, "shard killed: "+reason)
		}
	}
	e.recordEvent(sh, "kill", reason)
}

// RebindShard drains the current incarnation of shard id and respawns it
// through the regular failover machinery — drain, rebuild via the
// retained factory, rejoin the virtual timeline, reprovision (OnReplace),
// migrate every pinned session through the portable checkpoint log —
// without crashing any of its processes first: the shard is healthy, it
// is merely bound to the wrong configuration. With a DynamicShards
// factory the replacement comes up under the configuration current at
// respawn time, which is how the defense controller moves an API type
// between isolation tiers at runtime. Intended to be called from a
// reconcile point (a serving-wave barrier) with no job running on the
// shard. Idempotent against an already-failed shard.
func (e *Executor) RebindShard(id int, reason string) error {
	sh := e.Shard(id)
	if !sh.fail("rebind: " + reason) {
		return nil
	}
	e.recordEvent(sh, "rebind", reason)
	return e.failover(sh)
}

// recordEvent logs kind on sh, stamped at the shard clock's current time.
func (e *Executor) recordEvent(sh *Shard, kind, detail string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recordLocked(sh, sh.K.Clock.Now(), kind, detail)
}

// recordLocked is the one writer of the control event log: it appends an
// event stamped at `at` on sh's incarnation and bumps the kind's metrics
// counter in the same critical section. Counter and log mutate atomically
// with respect to EventsAndMetrics, so a snapshot taken mid-migration can
// never show a count the paired log doesn't explain (or vice versa).
// Caller holds e.mu.
func (e *Executor) recordLocked(sh *Shard, at vclock.Duration, kind, detail string) {
	e.events = append(e.events, metrics.Event{At: at, Shard: sh.ID, Gen: sh.Gen, Kind: kind, Detail: detail})
	e.met.Update(func(m *metrics.Snapshot) {
		switch kind {
		case "drain":
			m.ShardDrains++
		case "migrate":
			m.Migrations++
		case "migrate-failed":
			m.FailedMigrations++
		case "grow":
			m.ScaleUps++
		case "shrink":
			m.ScaleDowns++
		case "rebalance":
			m.Rebalances++
		case "rebind":
			m.Rebinds++
		case "hedge":
			m.Hedges++
		case "hedge-win":
			m.HedgeWins++
		case "hedge-cancel":
			m.HedgeCancels++
		case "reject":
			m.Rejected++
		case "shed":
			m.DeadlineShed++
		case "gray-drain":
			m.GrayDrains++
		}
	})
}

// EventsAndMetrics returns the control event log and the metrics snapshot
// under one lock acquisition: the pair is consistent — every drain,
// migration, scale, and rebalance counted in the snapshot has its event in
// the log, even while migrations are in flight on other goroutines.
func (e *Executor) EventsAndMetrics() (metrics.Log, metrics.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.events), e.met.Snapshot()
}

// Events returns a copy of the event log: failover (kill, drain, replace,
// replace-failed, migrate, migrate-failed), the control plane's grow,
// shrink, rebalance and rebind, admission refusals (reject, shed,
// quarantine) and the gray layer's suspect, suspect-clear, gray-drain and
// hedges. Its per-shard subsequences (EventsFor) are deterministic for a
// fixed plan seed; the interleaving across shards is not, so replay
// assertions compare per shard.
func (e *Executor) Events() metrics.Log {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.events)
}

// EventsFor returns the event log filtered to one shard id — the
// deterministic, replay-comparable subsequence.
func (e *Executor) EventsFor(id int) metrics.Log {
	var out metrics.Log
	for _, ev := range e.Events() {
		if ev.Shard == id {
			out = append(out, ev)
		}
	}
	return out
}

// CriticalPath returns the max-merge of all shard clocks — the virtual
// wall-clock of the whole serving run (the slowest shard), which is what
// throughput divides by. Per-shard work that ran in parallel does not sum.
func (e *Executor) CriticalPath() vclock.Duration {
	e.mu.Lock()
	clocks := make([]*vclock.Clock, len(e.shards))
	for i, sh := range e.shards {
		clocks[i] = sh.K.Clock
	}
	e.mu.Unlock()
	return vclock.Max(clocks...)
}

// TotalWork returns the sum of all current shard clocks — aggregate virtual
// compute spent. TotalWork / CriticalPath is the run's effective
// parallelism.
func (e *Executor) TotalWork() vclock.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sum vclock.Duration
	for _, sh := range e.shards {
		sum += sh.K.Clock.Now()
	}
	return sum
}

// SetPlacement installs a pluggable placement hook for new sessions: given
// the session id and a snapshot of the live pool, it returns the shard slot
// to pin to. Nil (the default) keeps round-robin by open order — the
// n=1-bit-identical policy every experiment before the control plane used.
// An out-of-range return falls back to round-robin. The snapshot is valid
// only during the call: the executor refills it for the next open, so a
// hook must copy whatever it keeps.
func (e *Executor) SetPlacement(fn func(session int, pool []PlacementInfo) int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.place = fn
}

// SetKeyedPlacement installs the placement hook consulted for sessions
// opened with a session key (SessionKeyed): it additionally sees the key,
// so a partition-aware placer can score warm-cache affinity. Keyless opens
// never consult it; keyed opens fall back to the plain hook (then
// round-robin) when it is nil or declines — so with no keyed hook
// installed, SessionKeyed is bit-identical to SessionFor. As for
// SetPlacement, the snapshot is valid only during the call.
func (e *Executor) SetKeyedPlacement(fn func(session int, key uint64, pool []PlacementInfo) int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.placeKey = fn
}

// placementPoolLocked snapshots the live pool for a placement decision into
// pool's backing array, allocating a new one when pool is too small. Counts
// come from the incremental pinned map, so a snapshot costs O(shards)
// regardless of how many sessions have ever opened. Caller holds e.mu.
func (e *Executor) placementPoolLocked(pool []PlacementInfo) []PlacementInfo {
	if cap(pool) < len(e.shards) {
		pool = make([]PlacementInfo, len(e.shards))
	}
	pool = pool[:len(e.shards)]
	for i, sh := range e.shards {
		pool[i] = PlacementInfo{ID: sh.ID, Gen: sh.Gen, Sessions: e.pinned[sh.ID], Clock: sh.K.Clock.Now()}
	}
	return pool
}

// movePin transfers an unfinished session's pin count between slots (a
// migration). Callers must not hold e.mu or any session mu.
func (e *Executor) movePin(from, to int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pinned[from]--
	e.pinned[to]++
}

// Session opens a session pinned to a shard chosen by the placement hook —
// round-robin by open order when none is installed. Assignment order is the
// order Session is called in, so sequential opens are deterministic.
// Sessions opened this way belong to tenant 0 with weight 1 — the
// single-tenant default every pre-overload experiment ran under.
func (e *Executor) Session() *Session { return e.SessionFor(0, 1) }

// SessionFor opens a session on behalf of a tenant with a fair-queueing
// weight. The tenant id tags the session's admission events and defense
// attribution, and the weight drives WFQ admission ordering. Weights below
// 1 are lifted to 1.
func (e *Executor) SessionFor(tenant, weight int) *Session {
	return e.open(tenant, weight, 0, false)
}

// SessionKeyed opens a session carrying a stable session key — the identity
// a returning user keeps across visits. Placement consults the keyed hook
// first (SetKeyedPlacement), then the plain hook, then round-robin; with no
// keyed hook installed the open is bit-identical to SessionFor.
func (e *Executor) SessionKeyed(tenant, weight int, key uint64) *Session {
	return e.open(tenant, weight, key, true)
}

// open is the shared session-open path.
func (e *Executor) open(tenant, weight int, key uint64, keyed bool) *Session {
	if weight < 1 {
		weight = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	e.nextID++
	slot := id % len(e.shards)
	placed := false
	if keyed && e.placeKey != nil {
		e.openPool = e.placementPoolLocked(e.openPool)
		if p := e.placeKey(id, key, e.openPool); p >= 0 && p < len(e.shards) {
			slot, placed = p, true
		}
	}
	if !placed && e.place != nil {
		e.openPool = e.placementPoolLocked(e.openPool)
		if p := e.place(id, e.openPool); p >= 0 && p < len(e.shards) {
			slot = p
		}
	}
	s := &Session{
		ID:     id,
		Tenant: tenant,
		Weight: weight,
		Key:    key,
		Keyed:  keyed,
		ex:     e,
		shard:  e.shards[slot],
	}
	e.sessions[id] = s
	e.pinned[slot]++
	return s
}

// liveSessionsLocked returns the unfinished sessions ascending by id, so
// walks over them log their events in open order. Caller holds e.mu.
func (e *Executor) liveSessionsLocked() []*Session {
	out := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionShard returns the shard unfinished session id is currently pinned
// to, or nil for a finished or unknown id.
func (e *Executor) SessionShard(id int) *Shard {
	e.mu.Lock()
	s := e.sessions[id]
	e.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.Shard()
}

// SessionKey returns the session key of unfinished session id and whether
// that session was opened keyed; (0, false) for a finished or unknown id.
func (e *Executor) SessionKey(id int) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.sessions[id]
	if s == nil {
		return 0, false
	}
	return s.Key, s.Keyed
}

// KeyedSessionsIn returns the ids of unfinished keyed sessions whose key
// falls in [lo, hi), ascending by id — the candidates a partition-rebalance
// drill migrates when it moves a key range.
func (e *Executor) KeyedSessionsIn(lo, hi uint64) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []int
	for _, s := range e.liveSessionsLocked() {
		if s.Keyed && s.Key >= lo && s.Key < hi {
			out = append(out, s.ID)
		}
	}
	return out
}

// Close shuts down every current shard's runtime (retired shards were
// closed when they were drained).
func (e *Executor) Close() {
	e.mu.Lock()
	shards := append([]*Shard(nil), e.shards...)
	e.mu.Unlock()
	for _, sh := range shards {
		if sh.Rt != nil {
			sh.Rt.Close()
		}
	}
}

// isCrashClass reports whether a job error means the shard (or an agent on
// it) died rather than the application failing: the failures the shard
// health window counts.
func isCrashClass(err error, sh *Shard) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ipc.ErrAgentCrashed) || errors.Is(err, ipc.ErrTimeout) {
		return true
	}
	return sh.Rt != nil && !sh.Rt.Host.Alive()
}

// failover drains a lost shard: it waits for in-flight work to finish,
// provisions a replacement that boots from the dead shard's virtual time,
// swaps it in, and migrates every pinned session — materializing each
// session's checkpointed stateful-API state from the portable log into the
// replacement's agents. Idempotent: concurrent observers of one dead shard
// perform one failover.
func (e *Executor) failover(old *Shard) error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	e.mu.Lock()
	replaced := old.ID >= len(e.shards) || e.shards[old.ID] != old
	e.mu.Unlock()
	if replaced {
		return nil // already replaced (or the slot was scaled in)
	}

	// Quiesce: once old.mu is held, no invocation is running on the shard
	// and none will be admitted (it is marked failed), so no checkpoint can
	// be written after its session migrates.
	old.mu.Lock()
	defer old.mu.Unlock()

	e.recordEvent(old, "drain", old.FailReason())

	repl, err := e.provision(old.ID, old.Gen+1, old.JoinedAt, old.K.Clock.Now())
	if repl == nil {
		e.recordEvent(old, "replace-failed", err.Error())
		return fmt.Errorf("core: shard %d lost and replacement failed: %w", old.ID, err)
	}
	if err != nil {
		e.recordEvent(repl, "replace-failed", err.Error())
		return fmt.Errorf("core: shard %d replacement provisioning: %w", old.ID, err)
	}

	e.mu.Lock()
	e.shards[old.ID] = repl
	e.retired = append(e.retired, old)
	sessions := e.liveSessionsLocked()
	e.mu.Unlock()
	e.recordEvent(repl, "replace", fmt.Sprintf("gen %d", repl.Gen))

	for _, s := range sessions {
		if s.pinnedTo(old) {
			e.move(s, repl, 0, "migrate", fmt.Sprintf("session %d", s.ID))
		}
	}

	if old.Rt != nil {
		old.Rt.Close()
	}
	return nil
}

// provision builds incarnation gen of slot id through the retained factory
// and readies it to serve: the shard joins the run's timeline at `at` plus
// its own boot cost (the factory left its clock at the boot cost, so a
// shard started at `at` finishes booting at at + boot), records joined as
// its slot's JoinedAt, shares the checkpoint log, and passes the OnReplace
// hook. A nil shard means the factory failed; a shard returned with an
// error failed its hook and has been closed. Failover replacements, grown
// shards and the shards built at construction all come from here.
func (e *Executor) provision(id, gen int, joined, at vclock.Duration) (*Shard, error) {
	sh, err := e.factory(id)
	if err != nil {
		return nil, err
	}
	sh.Gen, sh.JoinedAt = gen, joined
	sh.K.Clock.Observe(at + sh.K.Clock.Now())
	if sh.Rt != nil {
		sh.Rt.SetCheckpointLog(e.ckpt)
	}
	e.mu.Lock()
	onReplace := e.onReplace
	e.mu.Unlock()
	if onReplace != nil {
		if err := onReplace(sh); err != nil {
			if sh.Rt != nil {
				sh.Rt.Close()
			}
			return sh, err
		}
	}
	return sh, nil
}

// Grow appends one shard to the pool at virtual time `at` (the scale-up
// decision time on the run's critical path). The new shard is built by the
// retained factory under the next free slot id, joins the run's timeline at
// `at` plus its own boot cost — the same join rule as a failover
// replacement — is provisioned through the OnReplace hook, and then starts
// admitting work. Intended to be called from a control-plane reconcile
// point with no admissions racing the pool change.
func (e *Executor) Grow(at vclock.Duration) (*Shard, error) {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	id := e.Shards()
	sh, err := e.provision(id, 0, at, at)
	if sh == nil {
		return nil, fmt.Errorf("core: grow shard %d: %w", id, err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: grow shard %d provisioning: %w", id, err)
	}
	e.mu.Lock()
	e.shards = append(e.shards, sh)
	n := len(e.shards)
	e.mu.Unlock()
	e.sem.setCap(n)
	e.recordEvent(sh, "grow", fmt.Sprintf("pool %d", n))
	return sh, nil
}

// move migrates session s to shard to, charging extra virtual transfer
// time on to's clock first, and logs the move as kind with detail — or as
// "migrate-failed" with the error when bound state could not be restored
// (the session moves either way). Failover, shrink and rebalance all move
// sessions through here. The caller quiesces the source shard.
func (e *Executor) move(s *Session, to *Shard, extra vclock.Duration, kind, detail string) error {
	to.K.Clock.Advance(extra)
	if err := s.migrate(to); err != nil {
		e.recordEvent(to, "migrate-failed", fmt.Sprintf("session %d: %v", s.ID, err))
		return err
	}
	e.recordEvent(to, kind, detail)
	return nil
}

// MigrationPlan is a control-plane decision about where one session moves
// during a shrink: the destination slot, plus any extra virtual transfer
// cost the move pays on the destination clock (e.g. the cross-socket
// penalty of a locality-aware cost model).
type MigrationPlan struct {
	Dest  int
	Extra vclock.Duration
}

// Shrink retires the highest-slot shard — scale-in is failover without a
// corpse: the victim is quiesced, removed from the pool so no new session
// can land on it, and every session pinned to it migrates through the
// portable checkpoint log to a destination chosen by plan (least-pinned
// live shard when plan is nil). Must run from a control-plane reconcile
// point: in-flight admissions on other shards are fine, but the victim must
// be idle (the quiesce lock guarantees it, at the price of blocking until
// its current job drains).
func (e *Executor) Shrink(plan func(session int, pool []PlacementInfo) MigrationPlan) (*Shard, error) {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	e.mu.Lock()
	if len(e.shards) <= 1 {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: cannot shrink below one shard")
	}
	victim := e.shards[len(e.shards)-1]
	e.mu.Unlock()

	// Quiesce, then unpublish: once victim.mu is held no invocation is
	// running on it, and once it leaves e.shards no session can be placed
	// on it — any session in the snapshot below is the complete set.
	victim.mu.Lock()
	defer victim.mu.Unlock()
	e.mu.Lock()
	e.shards = e.shards[:len(e.shards)-1]
	n := len(e.shards)
	victim.retiredAt = victim.K.Clock.Now()
	e.retired = append(e.retired, victim)
	delete(e.killAt, victim.ID)
	sessions := e.liveSessionsLocked()
	e.mu.Unlock()
	e.sem.setCap(n)
	e.recordEvent(victim, "shrink", fmt.Sprintf("pool %d", n))

	for _, s := range sessions {
		if !s.pinnedTo(victim) {
			continue
		}
		// A fresh snapshot: plan runs outside e.mu, while opens refill theirs.
		e.mu.Lock()
		pool := e.placementPoolLocked(nil)
		e.mu.Unlock()
		p := leastPinnedPlan(s.ID, pool)
		if plan != nil {
			p = plan(s.ID, pool)
		}
		if p.Dest < 0 || p.Dest >= n {
			p = leastPinnedPlan(s.ID, pool)
		}
		e.move(s, e.Shard(p.Dest), p.Extra, "migrate", fmt.Sprintf("session %d off shard %d", s.ID, victim.ID))
	}

	victim.fail("scaled in")
	if victim.Rt != nil {
		victim.Rt.Close()
	}
	return victim, nil
}

// leastPinnedPlan is the fallback shrink destination: fewest pinned
// sessions, lowest slot on ties, no extra transfer cost.
func leastPinnedPlan(_ int, pool []PlacementInfo) MigrationPlan {
	best := 0
	for i, p := range pool {
		if p.Sessions < pool[best].Sessions {
			best = i
		}
	}
	return MigrationPlan{Dest: pool[best].ID}
}

// MigrateSession proactively moves one session to the shard in slot dest,
// materializing its bound state there from the checkpoint log — the same
// move a failover performs, issued by the control plane against a healthy
// (merely hot) source shard. extra is added virtual transfer cost on the
// destination clock (cross-socket penalty). The source shard is quiesced
// for the duration of the move so no checkpoint write races it. Moving a
// finished session is a no-op: it has nothing left to run.
func (e *Executor) MigrateSession(session, dest int, extra vclock.Duration) error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	e.mu.Lock()
	if session < 0 || session >= e.nextID {
		e.mu.Unlock()
		return fmt.Errorf("core: no session %d", session)
	}
	if dest < 0 || dest >= len(e.shards) {
		e.mu.Unlock()
		return fmt.Errorf("core: no shard slot %d", dest)
	}
	s := e.sessions[session]
	d := e.shards[dest]
	e.mu.Unlock()
	if s == nil {
		return nil
	}

	from := s.Shard()
	if from == d {
		return nil
	}
	from.mu.Lock()
	defer from.mu.Unlock()
	if !s.pinnedTo(from) {
		return nil // moved or finished while we waited
	}
	return e.move(s, d, extra, "rebalance", fmt.Sprintf("session %d from shard %d", s.ID, from.ID))
}

// noteWait folds one admitted invocation's wait into the per-slot load
// signal. Called with the subject shard's mu held (shard mu orders before
// executor mu).
func (e *Executor) noteWait(id int, wait vclock.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.loads[id]
	if l == nil {
		l = &shardLoad{}
		e.loads[id] = l
	}
	l.waitSum += wait
	l.waits++
	l.jobs++
}

// ShardLoads snapshots the control-plane signal: one entry per live pool
// slot, ascending by slot, with cumulative wait/job counters that survive
// failover (they key on the slot, not the incarnation).
func (e *Executor) ShardLoads() []ShardLoad {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ShardLoad, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardLoad{
			ID: sh.ID, Gen: sh.Gen,
			Sessions: e.pinned[sh.ID],
			Clock:    sh.K.Clock.Now(),
			JoinedAt: sh.JoinedAt,
		}
		if l := e.loads[sh.ID]; l != nil {
			out[i].WaitSum, out[i].Waits, out[i].Jobs = l.waitSum, l.waits, l.jobs
		}
		if g := e.grays[sh.ID]; g != nil && g.gen == sh.Gen {
			out[i].Suspicion, out[i].Suspect = g.score, g.suspect
		}
	}
	return out
}

// PinnedSessions returns the ids of unfinished sessions currently pinned to
// the shard in slot id, ascending — the control plane's rebalance
// candidates.
func (e *Executor) PinnedSessions(id int) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []int
	for _, s := range e.liveSessionsLocked() {
		if s.Shard().ID == id {
			out = append(out, s.ID)
		}
	}
	return out
}

// ShardSeconds integrates pool size over the virtual timeline up to end:
// every live slot contributes end − JoinedAt, and every scaled-in shard its
// actual lifetime. Failover corpses contribute nothing — their replacement
// inherited the slot's JoinedAt, so the slot's lifetime is counted once.
// This is the resource-cost denominator of the autoscaling experiment:
// latency parity at fewer shard-seconds is the win.
func (e *Executor) ShardSeconds(end vclock.Duration) vclock.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sum vclock.Duration
	for _, sh := range e.shards {
		if end > sh.JoinedAt {
			sum += end - sh.JoinedAt
		}
	}
	for _, sh := range e.retired {
		if sh.retiredAt > sh.JoinedAt {
			sum += sh.retiredAt - sh.JoinedAt
		}
	}
	return sum
}

// ErrSessionFinished is returned for work submitted on a session after its
// Finish: the session has left its executor, and the job does not run.
var ErrSessionFinished = errors.New("core: session finished")

// Session is one client's stream of pipeline invocations. All of a
// session's work runs on a single shard, so a client's framework state
// (open captures, loaded models, intermediate objects) stays on one
// runtime across invocations — until that shard is lost, at which point
// the session migrates to the replacement shard with its bound stateful
// state restored from the portable checkpoint log.
type Session struct {
	// ID is the session's open order in its executor: the first session
	// opened is 0, and an id is never reused, even after its session
	// finishes.
	ID int
	// Tenant identifies whose traffic this session carries; Weight is the
	// tenant's weighted-fair-queueing weight. Both are fixed at open
	// (Session() opens tenant 0 / weight 1, the single-tenant default).
	Tenant int
	Weight int
	// Key is the stable session key a returning user keeps across visits;
	// Keyed reports whether the session was opened with one
	// (SessionKeyed). Both are fixed at open.
	Key   uint64
	Keyed bool
	ex    *Executor

	mu    sync.Mutex
	shard *Shard
	bound map[string]Handle
	done  bool
}

// Shard returns the shard this session is currently pinned to; once the
// session is finished, the shard it was last pinned to.
func (s *Session) Shard() *Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shard
}

// pinnedTo reports whether the session is unfinished and pinned to sh.
func (s *Session) pinnedTo(sh *Shard) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.done && s.shard == sh
}

// Finish marks the session complete and removes it from the executor:
// DoAt and DoBatch refuse its further work with ErrSessionFinished, the
// control plane stops counting it toward shard load, failover and shrink
// leave it where it is, and the by-id lookups answer for its id as for an
// unknown one. The executor's pinned counts are updated in the same
// critical section placement snapshots read them under (e.mu before s.mu —
// the established order), so no placement decision ever sees a
// half-finished session.
//
// Finish also ends the life of the session's state: its bindings are
// dropped, every live shard that holds objects the session created
// releases them (between that shard's jobs), and the session's checkpoint
// log keys are retired. Objects created outside any session scope, such as
// a model loaded at provisioning, are not the session's. Finish must not be
// called from inside one of the session's own jobs; on a direct shard, or
// for a session that created nothing, it allocates nothing.
func (s *Session) Finish() {
	e := s.ex
	var buf [2]*Shard
	holders := buf[:0]
	e.mu.Lock()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		e.mu.Unlock()
		return
	}
	s.done = true
	clear(s.bound)
	e.pinned[s.shard.ID]--
	s.mu.Unlock()
	delete(e.sessions, s.ID)
	for _, sh := range e.shards {
		if sh.Rt != nil && sh.Rt.holdsSession(s.ID) {
			holders = append(holders, sh)
		}
	}
	e.mu.Unlock()
	for _, sh := range holders {
		sh.mu.Lock()
		sh.Rt.finishSession(s.ID)
		sh.mu.Unlock()
	}
	e.ckpt.DropSession(s.ID)
}

// Done reports whether the session has been finished.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Bind registers a durable stateful handle under a name. Bound handles are
// what failover migrates: after the session moves to a replacement shard,
// Bound(name) returns a handle to the same state materialized there (from
// its latest checkpoint), so the client keeps calling stateful APIs as if
// nothing happened.
func (s *Session) Bind(name string, h Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bound == nil {
		s.bound = make(map[string]Handle)
	}
	s.bound[name] = h
}

// Bound returns the current handle registered under name. Callers should
// re-fetch it before each use rather than caching the Handle value, since
// migration rebinds it.
func (s *Session) Bound(name string) (Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.bound[name]
	return h, ok
}

// migrate moves the session to shard `to`, materializing every bound
// handle's latest checkpoint into the replacement runtime. A binding whose
// state cannot be restored is dropped and the error surfaced, so the next
// use of that name fails loudly instead of reading whatever the destination
// holds under the old handle's id; the session still moves — it must run
// somewhere. Unfinished sessions carry their pinned count to the
// destination slot (after s.mu is released: session mu never orders before
// executor mu).
func (s *Session) migrate(to *Shard) error {
	s.mu.Lock()
	var firstErr error
	names := make([]string, 0, len(s.bound))
	for name := range s.bound {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nh, err := s.restore(to, name, s.bound[name])
		if err != nil {
			delete(s.bound, name)
			firstErr = err
			continue
		}
		s.bound[name] = nh
	}
	from := s.shard.ID
	wasDone := s.done
	s.shard = to
	s.mu.Unlock()
	if !wasDone && from != to.ID {
		s.ex.movePin(from, to.ID)
	}
	return firstErr
}

// restore materializes bound handle h's latest checkpoint onto shard to.
func (s *Session) restore(to *Shard, name string, h Handle) (Handle, error) {
	if to.Rt == nil {
		return Handle{}, fmt.Errorf("core: cannot restore %q onto a direct shard", name)
	}
	cp, ok := s.ex.ckpt.LatestSlot(s.ID, object.Slot(h.ref.PID, h.ref.ID))
	if !ok {
		return Handle{}, fmt.Errorf("core: no checkpoint for bound handle %q", name)
	}
	return to.Rt.Adopt(s.ID, cp)
}

// currentShard reads the session's pin, or nil once the session is
// finished: failover moves only unfinished sessions, so a finished
// session's pin may name a retired shard.
func (s *Session) currentShard() *Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil
	}
	return s.shard
}

// Do runs one pipeline invocation on the session's shard, with the arrival
// stamp taken at admission (no modeled queueing delay ahead of it). See
// DoAt.
func (s *Session) Do(job func(sh *Shard) error) error {
	return s.DoAt(-1, job)
}

// DoAt runs one pipeline invocation that arrived at the given virtual time
// on the session's shard clock. Admission is bounded by the executor's
// worker count; invocations on the same shard serialize. If the shard is
// idle past the arrival time its clock advances to the arrival (the shard
// waited for the request); if the shard is busy, the gap between arrival
// and service start is the request's admission-queue wait. The recorded
// virtual latency runs from arrival to completion — queueing plus service —
// and the wait alone is recorded in the executor's queue distribution.
//
// A negative arrival means "arrived now": the stamp is taken when the shard
// first admits the invocation, yielding zero queueing delay.
//
// If the shard was lost (killed, or drained by the health policy), the
// session fails over — drain, replace, migrate — and the invocation runs on
// the replacement; a crash-class failure that trips the health threshold
// mid-invocation re-runs the invocation there too, so callers never observe
// the loss of a shard. A finished session runs nothing: DoAt returns
// ErrSessionFinished.
func (s *Session) DoAt(arrival vclock.Duration, job func(sh *Shard) error) error {
	s.ex.sem.acquire()
	defer s.ex.sem.release()
	return s.do(arrival, job)
}

// do runs one invocation through the admission path DoAt and DoBatch
// share: hedged when a hedge policy is installed and the request is
// stamped, on the session's pinned shard alone otherwise. A negative
// arrival is a closed-loop request: its stamp resolves at first admission
// and carries no client-side deadline, even across failover retries. Only
// stamped requests hedge — the same idempotence rule deadline shedding
// applies. Caller holds a worker-pool slot.
func (s *Session) do(arrival vclock.Duration, job func(sh *Shard) error) error {
	stamped := arrival >= 0
	s.ex.mu.Lock()
	hp := s.ex.hedgep
	s.ex.mu.Unlock()
	if stamped && hp.active() {
		return s.doHedged(arrival, hp, job)
	}
	_, _, _, err := s.runPrimary(&arrival, job, stamped, true)
	return err
}

// runPrimary runs one invocation to completion on the session's pinned
// shard, following failovers, and returns the shard it completed on plus
// the completion time on that shard's clock and the service time alone.
// recordLat controls whether the completion records a latency sample — the
// hedged path defers that to the race winner. Caller holds a worker-pool
// slot.
func (s *Session) runPrimary(arrival *vclock.Duration, job func(sh *Shard) error, stamped, recordLat bool) (*Shard, vclock.Duration, vclock.Duration, error) {
	for {
		sh := s.currentShard()
		if sh == nil {
			return nil, 0, 0, ErrSessionFinished
		}
		sh.mu.Lock()
		if sh != s.currentShard() {
			// Migrated or finished while waiting for the shard lock.
			sh.mu.Unlock()
			continue
		}
		done, end, svc, err := s.runLocked(sh, arrival, job, stamped, recordLat)
		failed := sh.Failed()
		sh.mu.Unlock()
		if done {
			return sh, end, svc, err
		}
		if failed {
			// The shard was lost — already at admission, or under this
			// invocation: fail over and re-run on the replacement. The
			// retry keeps the original arrival, so failover time lands in
			// the tail percentiles.
			if ferr := s.ex.failover(sh); ferr != nil {
				return nil, 0, 0, ferr
			}
		}
	}
}

// runLocked runs one admitted invocation on sh; the caller holds sh.mu and
// a worker-pool slot. It returns done=false when the invocation must be
// re-run after a failover — the shard was already failed at admission, or
// it died under this invocation. *arrival resolves to "now" on first
// admission when negative and is kept across retries; stamped records
// whether the request carried a client arrival (closed-loop requests are
// exempt from deadline shedding). recordLat controls whether the completion
// records a latency sample (the hedged path records only the race winner);
// end is the completion time on sh's clock, degradation included, and svc
// the service time alone (end minus service start, no queue wait) — the
// shard-attributable latency the hedge trigger gates on.
func (s *Session) runLocked(sh *Shard, arrival *vclock.Duration, job func(sh *Shard) error, stamped, recordLat bool) (done bool, end, svc vclock.Duration, err error) {
	e := s.ex
	e.mu.Lock()
	pol, gate, apol := e.policy, e.gate, e.admit
	killAt, kill := e.killAt[sh.ID]
	kill = kill && !sh.Failed() && sh.K.Clock.Now() >= killAt
	if kill {
		// A schedule fires once; the replacement is not re-killed.
		delete(e.killAt, sh.ID)
	}
	e.mu.Unlock()
	if kill {
		e.killShardLocked(sh, fmt.Sprintf("scheduled kill at %v", killAt))
	}
	if !sh.Failed() && pol.DrainOnDegrade && sh.Rt != nil && sh.Rt.Metrics.Snapshot().Degraded > 0 {
		sh.fail("partition degraded to in-host execution")
	}
	if sh.Failed() {
		return false, 0, 0, nil
	}

	now := sh.K.Clock.Now()
	if *arrival < 0 {
		*arrival = now
	}
	if gate != nil {
		// Defense gate: a quarantined tenant's request is refused before
		// any overload accounting, as pure as a shed — no clock advance,
		// no checkpoint, no chaos draw.
		if gerr := gate(s.Tenant, s.ID); gerr != nil {
			e.recordShed(sh, "quarantine", *arrival,
				fmt.Sprintf("tenant %d session %d: %v", s.Tenant, s.ID, gerr))
			return true, now, 0, gerr
		}
	}
	if apol.active() {
		// Overload control: reject at the queue bound, drop past the
		// deadline. A shed request runs nothing — clock, checkpoints, and
		// chaos draws are untouched, so shedding never perturbs the
		// replayable logs of the work that was admitted.
		if shed, serr := e.shedLocked(sh, s, *arrival, now, apol, stamped); shed {
			return true, now, 0, serr
		}
	}
	wait := vclock.Duration(0)
	if *arrival > now {
		sh.K.Clock.Observe(*arrival)
	} else {
		wait = now - *arrival
	}
	svcStart := sh.K.Clock.Now()
	if sh.Rt != nil {
		sh.Rt.SetSessionScope(s.ID)
	}
	jerr := job(sh)
	if sh.Rt != nil {
		sh.Rt.SetSessionScope(-1)
	}
	end = sh.K.Clock.Now()
	// Gray-failure channel: a degraded shard completes the work but takes
	// longer — the engine inflates this invocation's virtual service time
	// without failing anything, which is what makes the failure gray.
	if eng := sh.Chaos(); eng != nil {
		if extra := eng.ServiceDegradation(svcStart, end-svcStart); extra > 0 {
			sh.K.Clock.Advance(extra)
			end = sh.K.Clock.Now()
		}
	}

	crashed := isCrashClass(jerr, sh)
	if crashed && pol.FailThreshold > 0 {
		if n := sh.recordFailure(); n >= pol.FailThreshold {
			sh.fail(fmt.Sprintf("%d crash-class failures in window", n))
		}
	}
	if crashed && sh.Failed() {
		return false, 0, 0, nil
	}
	if apol.active() {
		sh.noteEnd(end)
	}
	if recordLat {
		e.lat.Add(end - *arrival)
	}
	e.queue.Add(wait)
	e.noteWait(sh.ID, wait)
	e.observeService(sh, end-svcStart, end)
	return true, end, end - svcStart, jerr
}

// BatchEntry is one invocation inside a coalesced admission batch.
type BatchEntry struct {
	// Session runs the entry.
	Session *Session
	// Arrival is the entry's arrival stamp; negative means "arrived at
	// admission".
	Arrival vclock.Duration
	// Job is the invocation body.
	Job func(sh *Shard) error
}

// DoBatch admits a coalesced batch of invocations as one unit: one
// worker-pool slot for the whole batch, amortizing the per-invocation
// semaphore traffic that streams of small requests otherwise pay. Entries
// execute in order, each through the same admission path as DoAt — its own
// arrival stamp, hedge, failover, latency and queue-wait samples — so
// batching changes admission cost, not measured semantics: a batch behaves
// as the same entries submitted through DoAt one after another. An entry of
// a finished session runs nothing and gets ErrSessionFinished. Entries are
// read, not written: a negative Arrival resolves at admission without being
// rewritten in place. Returns one error per entry.
func (e *Executor) DoBatch(entries []BatchEntry) []error {
	errs := make([]error, len(entries))
	if len(entries) == 0 {
		return errs
	}
	e.sem.acquire()
	defer e.sem.release()
	e.met.Update(func(m *metrics.Snapshot) {
		m.BatchedAdmissions++
		m.BatchedRequests += uint64(len(entries))
	})
	for i, en := range entries {
		errs[i] = en.Session.do(en.Arrival, en.Job)
	}
	return errs
}

// Call implements Caller on the session: a single-API invocation submitted
// through the pool. Pipelines of several calls should use Do so the whole
// invocation is admitted (and its latency measured) as one unit.
func (s *Session) Call(api string, args ...framework.Value) ([]Handle, []framework.Value, error) {
	var handles []Handle
	var plain []framework.Value
	err := s.Do(func(sh *Shard) error {
		var cerr error
		handles, plain, cerr = sh.Ex.Call(api, args...)
		return cerr
	})
	return handles, plain, err
}

// Fetch implements Caller on the session.
func (s *Session) Fetch(h Handle) ([]byte, error) {
	var out []byte
	err := s.Do(func(sh *Shard) error {
		var ferr error
		out, ferr = sh.Ex.Fetch(h)
		return ferr
	})
	return out, err
}
