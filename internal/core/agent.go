package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/object"
	"freepart.dev/freepart/internal/vclock"
)

// agent is one isolated partition: a process, its object table, an RPC
// connection, the derived syscall policy, and restart bookkeeping. The
// boundary decides which of those a given partition actually has: only
// process-tier agents carry a conn and a syscall policy; only domain-tier
// agents carry a protection key.
type agent struct {
	id     int
	name   string
	types  map[framework.APIType]bool // API types homed here
	policy *analysis.AgentPolicy      // nil when syscall restriction is off

	// boundary is the isolation mechanism hosting this partition, fixed at
	// spawn (the policy is immutable for a runtime's lifetime).
	boundary Boundary
	// key is the protection key tagging this partition's state; nonzero
	// only for domain-tier agents.
	key mem.Key

	mu    sync.Mutex
	proc  *kernel.Process
	ctx   *framework.Ctx
	remap map[uint64]uint64 // pre-restart object id -> restored id
	// canon is the inverse view of remap chains: current object id -> the
	// id the object was first created under (the id host-held refs carry).
	// Absent entries are identity. The portable checkpoint log keys state by
	// canonical id so one piece of session state keeps one log key across
	// restarts.
	canon map[uint64]uint64
	// deref caches lazily-copied remote objects: once an agent has pulled
	// a remote object's payload (Fig. 11 step 4), later calls with the
	// same (owner, id, content-hash) reference reuse the local copy
	// instead of copying again. Mutations in the owner change the hash a
	// fresh reply carries, so stale entries simply miss.
	deref map[derefKey]uint64
	// checkpoints holds serialized stateful objects keyed by their
	// pre-crash table id (§A.2.4).
	checkpoints map[uint64]checkpoint
	// pending is the release list for the agent's next call: objects the
	// host released that this process-tier agent owns or holds a lazy copy
	// of.
	pending []framework.Released

	// restartMu serializes the whole supervise-and-restart operation so
	// concurrent observers of one crash cannot double-restart the process
	// (each would wipe the other's restored state).
	restartMu sync.Mutex
	// Supervision policy state, guarded by mu: consecutive crash-loop
	// length, virtual restart times inside the breaker window, and whether
	// the breaker has demoted this partition to in-host execution.
	streak       int
	restartTimes []vclock.Duration
	degraded     bool

	conn *ipc.Conn
}

// isDegraded reports whether the breaker demoted this partition.
func (a *agent) isDegraded() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.degraded
}

// setDegraded marks the partition demoted; returns false if it already was.
func (a *agent) setDegraded() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.degraded {
		return false
	}
	a.degraded = true
	return true
}

// noteSuccess resets the crash-loop streak after a completed call.
func (a *agent) noteSuccess() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.streak = 0
}

// bumpStreak extends the crash-loop streak and returns its new length.
func (a *agent) bumpStreak() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.streak++
	return a.streak
}

// recordRestart logs a restart at virtual time now and returns how many
// restarts fall inside the trailing window (0 = unbounded window).
func (a *agent) recordRestart(now, window vclock.Duration) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.restartTimes = append(a.restartTimes, now)
	if window > 0 {
		keep := a.restartTimes[:0]
		for _, t := range a.restartTimes {
			if now-t <= window {
				keep = append(keep, t)
			}
		}
		a.restartTimes = keep
	}
	return len(a.restartTimes)
}

// checkpoint is a serialized object snapshot.
type checkpoint struct {
	kind    object.Kind
	header  []byte
	payload []byte
}

// derefKey identifies a remote object version in the deref cache.
type derefKey struct {
	pid  uint32
	id   uint64
	hash uint64
}

// context returns the agent's current execution context.
func (a *agent) context() *framework.Ctx {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ctx
}

// process returns the agent's current process.
func (a *agent) process() *kernel.Process {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.proc
}

// canonOf maps a current object id back to its canonical (creation-time)
// identity.
func (a *agent) canonOf(id uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c, ok := a.canon[id]; ok {
		return c
	}
	return id
}

// resolveID maps an object id through the post-restart remap table.
// Restored objects can reuse ids from the previous incarnation, so chains
// may self-reference; a visited set guards against cycles.
func (a *agent) resolveID(id uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resolveLocked(id)
}

// resolveLocked is resolveID with a.mu held.
func (a *agent) resolveLocked(id uint64) uint64 {
	if len(a.remap) == 0 {
		return id
	}
	seen := map[uint64]bool{id: true}
	for {
		next, ok := a.remap[id]
		if !ok || seen[next] {
			return id
		}
		seen[next] = true
		id = next
	}
}

// serve is the agent's RPC handler: decode a Call, run it in the agent
// context, encode the Reply. Installed once per agent; survives restarts
// because it reads the current ctx/proc through the agent's mutex.
func (rt *Runtime) serve(a *agent) ipc.Handler {
	return func(kind uint32, payload []byte) ([]byte, error) {
		call, err := framework.DecodeCall(payload)
		if err != nil {
			return nil, err
		}
		// Released objects go first, so this call reuses their pages.
		rt.applyReleases(a, call.Release)
		api, ok := rt.Reg.Get(call.API)
		if !ok {
			return nil, fmt.Errorf("core: unknown API %s", call.API)
		}
		// Any failure past this point may be the agent dying mid-request
		// (exploit, DoS, injected fault) — including during argument
		// rebuilding, which writes into the agent's space. Classify such
		// errors as crashes so the supervisor retries instead of surfacing
		// them to the application.
		crashClass := func(err error) error {
			if !a.process().Alive() {
				return fmt.Errorf("%w: %v", ipc.ErrAgentCrashed, err)
			}
			return err
		}
		ctx := a.context()
		args, err := rt.unmarshalArgs(a, ctx, call)
		if err != nil {
			return nil, crashClass(err)
		}
		results, err := api.Exec(ctx, args)
		if err != nil {
			return nil, crashClass(err)
		}
		if (rt.Config.CheckpointStateful && api.Stateful) || rt.Config.CheckpointAll {
			rt.checkpointObjects(a, ctx, api, args, results)
		}
		reply, err := rt.marshalReply(a, ctx, results)
		if err != nil {
			return nil, err
		}
		return framework.EncodeReply(reply)
	}
}

// unmarshalArgs converts wire values into agent-local values, performing
// eager rebuilds (payload attached) or lazy direct copies (ref only).
func (rt *Runtime) unmarshalArgs(a *agent, ctx *framework.Ctx, call framework.Call) ([]framework.Value, error) {
	args := make([]framework.Value, len(call.Args))
	for i, v := range call.Args {
		if v.Kind != framework.ValRef {
			args[i] = v
			continue
		}
		ref := v.Ref
		// Payload shipped through the host (deep copy path).
		if i < len(call.Payloads) && call.Payloads[i] != nil {
			o, err := object.Rebuild(ctx.P.Space(), ref, call.Payloads[i])
			if err != nil {
				return nil, err
			}
			args[i] = framework.Obj(ctx.Table.Put(o))
			continue
		}
		// Reference to an object this agent already owns.
		if ref.PID == uint32(ctx.P.PID()) {
			args[i] = framework.Obj(a.resolveID(ref.ID))
			continue
		}
		// Lazy data copy: dereference now, copying directly from the
		// owning agent's space (Fig. 11-(a), step 4) — unless this agent
		// already holds this version of the object.
		key := derefKey{pid: ref.PID, id: ref.ID, hash: ref.Hash}
		a.mu.Lock()
		localID, cached := a.deref[key]
		a.mu.Unlock()
		if cached {
			if _, ok := ctx.Table.Get(localID); ok {
				args[i] = framework.Obj(localID)
				continue
			}
		}
		payload, err := rt.loadRemote(ref)
		if err != nil {
			return nil, err
		}
		o, err := object.Rebuild(ctx.P.Space(), ref, payload)
		if err != nil {
			return nil, err
		}
		rt.Metrics.AddLazyCopy(len(payload))
		rt.K.Clock.Advance(rt.K.Cost.DirectCopyCost(len(payload)))
		id := ctx.Table.Put(o)
		a.mu.Lock()
		a.deref[key] = id
		a.mu.Unlock()
		args[i] = framework.Obj(id)
	}
	return args, nil
}

// loadRemote reads an object's payload out of its owning endpoint.
func (rt *Runtime) loadRemote(ref object.Ref) ([]byte, error) {
	ep, ok := rt.endpoint(ref.PID)
	if !ok {
		return nil, fmt.Errorf("core: no endpoint for pid %d", ref.PID)
	}
	id := ref.ID
	if ep.agent != nil {
		id = ep.agent.resolveID(id)
	}
	o, ok := ep.table().Get(id)
	if !ok {
		return nil, fmt.Errorf("core: dangling ref pid=%d id=%d", ref.PID, ref.ID)
	}
	return object.PayloadBytes(o)
}

// marshalReply converts agent-local results into wire values: refs under
// LDC, payloads otherwise.
func (rt *Runtime) marshalReply(a *agent, ctx *framework.Ctx, results []framework.Value) (framework.Reply, error) {
	reply := framework.Reply{
		Results:  make([]framework.Value, len(results)),
		Payloads: make([][]byte, len(results)),
	}
	for i, v := range results {
		if v.Kind != framework.ValObj {
			reply.Results[i] = v
			continue
		}
		ref, err := ctx.Table.RefFor(v.Obj)
		if err != nil {
			return framework.Reply{}, err
		}
		if rt.Config.LazyDataCopy {
			reply.Results[i] = framework.RefVal(ref)
			continue
		}
		o, _ := ctx.Table.Get(v.Obj)
		payload, err := object.PayloadBytes(o)
		if err != nil {
			return framework.Reply{}, err
		}
		reply.Results[i] = framework.RefVal(ref)
		reply.Payloads[i] = payload
	}
	return reply, nil
}

// checkpointObjects snapshots every object argument/result of a stateful
// API call so a restart can restore them. When a portable checkpoint log is
// attached and a serving session is in scope, stateful-API state is also
// written through to the log under (session, API type, canonical slot) —
// the copy any other shard can materialize during failover.
func (rt *Runtime) checkpointObjects(a *agent, ctx *framework.Ctx, api *framework.API, args, results []framework.Value) {
	log, session := rt.checkpointScope()
	snap := func(v framework.Value) {
		if v.Kind != framework.ValObj {
			return
		}
		o, ok := ctx.Table.Get(v.Obj)
		if !ok {
			return
		}
		payload, err := object.PayloadBytes(o)
		if err != nil {
			return
		}
		// One snapshot serves the restart map and the portable log; neither
		// writes to it.
		cp := checkpoint{kind: o.Kind(), header: o.Header(), payload: payload}
		a.mu.Lock()
		a.checkpoints[v.Obj] = cp
		a.mu.Unlock()
		rt.Metrics.AddCheckpoint()
		rt.K.Clock.Advance(rt.K.Cost.CheckpointCost(len(payload)))
		if log != nil && session >= 0 && api.Stateful {
			key := object.CheckpointKey{
				Session: session,
				Type:    uint8(rt.Cat.TypeOf(api.Name)),
				Slot:    object.Slot(uint32(a.process().PID()), a.canonOf(v.Obj)),
			}
			log.AppendOwned(key, cp.kind, cp.header, cp.payload)
		}
	}
	for _, v := range args {
		snap(v)
	}
	for _, v := range results {
		snap(v)
	}
}

// restartAgent revives a dead agent: fresh process state, re-applied
// syscall policy, re-run one-time initialization, and checkpoint
// restoration with id remapping so host-held refs stay valid.
func (rt *Runtime) restartAgent(a *agent) error {
	// Restart replaces the process's address space — catastrophic for a
	// domain- or host-tier partition, which *shares* the host's space.
	// Those tiers have no restart story: the partition dies with the host.
	if a.boundary != nil && a.boundary.Tier() != isolation.TierProcess {
		return fmt.Errorf("core: cannot restart %s: %s-tier partitions share the host's fate", a.name, a.boundary.Tier())
	}
	a.mu.Lock()
	proc := a.proc
	a.mu.Unlock()
	if proc.Alive() {
		return nil
	}
	rt.K.Restart(proc)
	rt.Metrics.AddRestart()

	newCtx := framework.NewCtx(rt.K, proc)
	newCtx.OnExploit = rt.exploit
	newCtx.Tracer = rt.Tracer

	// Old objects are intentionally gone (§6); restore only checkpointed
	// stateful state, remapping ids.
	a.mu.Lock()
	// Ids stay unique across incarnations: the fresh table continues where
	// the dead one stopped, so a remap entry (old id -> restored id) can
	// never collide with an id the new incarnation hands out — resolveID
	// would otherwise misroute fresh refs to restored checkpoints.
	newCtx.Table.SkipTo(a.ctx.Table.NextID())
	oldRemap := a.remap
	oldCanon := a.canon
	cps := a.checkpoints
	// Objects released but not yet told to the agent do not come back.
	pid := uint32(proc.PID())
	for _, k := range a.pending {
		if k.PID == pid {
			delete(cps, a.resolveLocked(k.ID))
			continue
		}
		for dk, id := range a.deref {
			if dk.pid == k.PID && dk.id == k.ID {
				delete(cps, id)
			}
		}
	}
	a.ctx = newCtx
	a.remap = make(map[uint64]uint64)
	a.canon = make(map[uint64]uint64)
	a.checkpoints = make(map[uint64]checkpoint)
	a.deref = make(map[derefKey]uint64)
	a.mu.Unlock()

	// Restore in sorted id order so allocation addresses in the fresh
	// space — and everything downstream, including chaos logs — are
	// deterministic (map iteration order is not).
	oldIDs := make([]uint64, 0, len(cps))
	for oldID := range cps {
		oldIDs = append(oldIDs, oldID)
	}
	sort.Slice(oldIDs, func(i, j int) bool { return oldIDs[i] < oldIDs[j] })
	for _, oldID := range oldIDs {
		cp := cps[oldID]
		o, err := object.Rebuild(proc.Space(), object.Ref{Kind: cp.kind, Header: cp.header}, cp.payload)
		if err != nil {
			continue
		}
		newID := newCtx.Table.Put(o)
		a.mu.Lock()
		a.remap[oldID] = newID
		// Ids from even earlier incarnations chain through the old remap.
		for ancient, prev := range oldRemap {
			if prev == oldID {
				a.remap[ancient] = newID
			}
		}
		// The restored object keeps its canonical identity, so the portable
		// checkpoint log sees one key across incarnations.
		if c, ok := oldCanon[oldID]; ok {
			a.canon[newID] = c
		} else {
			a.canon[newID] = oldID
		}
		a.checkpoints[newID] = cp
		a.mu.Unlock()
	}

	if err := rt.initAgent(a); err != nil {
		return err
	}
	if a.policy != nil {
		if err := a.policy.Apply(proc.Filter(), kernel.ActionKill); err != nil {
			return err
		}
	}
	// Re-arm fault injection on the fresh address space — after checkpoint
	// restoration, so the revival itself cannot be faulted back down.
	rt.armChaos(a)
	return nil
}

// callAgent performs one RPC to the agent under the supervision policy:
// crash-class failures trigger a supervised restart, and with a retry
// budget the call is re-issued under its original sequence number —
// idempotent replay, because the server-side dedup cache answers for work
// the previous incarnation already completed.
//
// The agent's pending release list rides on the call. It stays pending
// until the agent has run the call (an application error included), so a
// call that never got through carries it again next time.
func (rt *Runtime) callAgent(a *agent, call framework.Call) (framework.Reply, error) {
	call.Release = a.pendingReleases()
	wire, err := framework.EncodeCall(call)
	if err != nil {
		return framework.Reply{}, err
	}
	seq := a.conn.NextSeq()
	for attempt := 0; ; attempt++ {
		var out []byte
		if attempt == 0 {
			out, err = a.conn.CallSeq(seq, 0, wire)
		} else {
			rt.Metrics.AddRetry()
			out, err = a.conn.Retry(seq, 0, wire)
		}
		rt.Metrics.AddIPC(payloadBytes(call))
		if err == nil {
			a.noteSuccess()
			a.sent(len(call.Release))
			reply, derr := framework.DecodeReply(out)
			if derr != nil {
				return framework.Reply{}, derr
			}
			return reply, nil
		}
		crashed := errors.Is(err, ipc.ErrAgentCrashed)
		transient := errors.Is(err, ipc.ErrTimeout) || errors.Is(err, ipc.ErrCorrupt)
		if !crashed && !transient {
			// Application-level error: surface unchanged, no retry.
			a.sent(len(call.Release))
			return framework.Reply{}, err
		}
		if crashed {
			if !rt.Config.Restart {
				return framework.Reply{}, err
			}
			if rerr := rt.superviseRestart(a); rerr != nil {
				return framework.Reply{}, fmt.Errorf("core: restart failed: %w (after %v)", rerr, err)
			}
			if a.isDegraded() {
				return framework.Reply{}, errAgentDegraded
			}
		}
		if attempt >= rt.Config.RetryBudget {
			return framework.Reply{}, err
		}
	}
}

// payloadBytes sums the eager payload bytes attached to a call.
func payloadBytes(call framework.Call) int {
	n := 0
	for _, p := range call.Payloads {
		n += len(p)
	}
	return n
}
