package core

import (
	"bytes"
	"fmt"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/object"
)

// tierFor picks the isolation tier of a partition: without a policy,
// always the process tier (bit-identical to the pre-policy path);
// otherwise the strongest tier among the types the partition homes (a
// partition is as protected as its most sensitive type requires).
func (rt *Runtime) tierFor(types map[framework.APIType]bool) isolation.Tier {
	pol := rt.Config.Isolation
	if pol == nil {
		return isolation.TierProcess
	}
	tier := isolation.TierProcess
	found := false
	for t := range types {
		tt := pol.TierOf(t)
		if !found || tt > tier {
			tier = tt
			found = true
		}
	}
	return tier
}

// spawnAgent creates and initializes one partition on the tier the policy
// picks for it:
//
//   - process — the paper's mechanism: a kernel process with its own
//     address space and seccomp filter (the union of its types' policies),
//     reached over per-call IPC, restarted by the supervisor.
//   - domain — an ERIM-style MPK domain: a process sharing the host's
//     address space, its state tagged with a protection key of its own.
//     There is no per-domain seccomp and no restart: a domain that dies
//     takes the host process with it (shared fate is the honest MPK
//     semantics, and exactly why DoS/RCE classes stay unblocked there).
//   - host — the host process itself: no switch, no copy, no containment.
func (rt *Runtime) spawnAgent(id int, types map[framework.APIType]bool) error {
	name := fmt.Sprintf("agent:%d", id)
	if len(types) == 1 {
		for t := range types {
			name = "agent:" + t.Long()
		}
	}
	a := &agent{
		id: id, name: name, types: types, tier: rt.tierFor(types),
		remap:       make(map[uint64]uint64),
		canon:       make(map[uint64]uint64),
		checkpoints: make(map[uint64]checkpoint),
		deref:       make(map[derefKey]uint64),
	}
	switch a.tier {
	case isolation.TierHost:
		a.proc, a.ctx = rt.Host, rt.hostCtx
	case isolation.TierDomain:
		a.proc = rt.K.SpawnDomain(name, rt.Host)
		key, err := rt.allocDomainKey()
		if err != nil {
			return err
		}
		a.key, a.ctx = key, rt.newCtx(a.proc)
	default:
		a.proc = rt.K.Spawn(name)
		a.ctx = rt.newCtx(a.proc)
		a.conn = ipc.NewConn(rt.K.Clock, rt.K.Cost, rt.serve(a))
		if rt.policies != nil {
			a.policy = rt.partitionPolicy(types)
		}
	}

	rt.mu.Lock()
	rt.agents[id] = a
	if a.tier != isolation.TierHost {
		// A host-tier partition's objects are the host's, under its pid.
		rt.endpoints[uint32(a.proc.PID())] = a
	}
	rt.mu.Unlock()

	if a.tier != isolation.TierProcess {
		// One-time init still applies (the GUI socket opens from the host).
		return rt.initAgent(a)
	}
	return rt.boot(a)
}

// partitionPolicy returns the syscall policy of a process-tier partition
// homing types: its type's derived policy itself when it homes one type,
// else a fresh union of its types' policies. Either is read-only.
func (rt *Runtime) partitionPolicy(types map[framework.APIType]bool) *analysis.AgentPolicy {
	if len(types) == 1 {
		for t := range types {
			if p, ok := rt.policies[t]; ok {
				return p
			}
		}
	}
	u := &analysis.AgentPolicy{FDLabels: make(map[kernel.Sysno][]string)}
	for t := range types {
		if p, ok := rt.policies[t]; ok {
			u.Allowed = append(u.Allowed, p.Allowed...)
			u.InitOnly = append(u.InitOnly, p.InitOnly...)
			for call, labels := range p.FDLabels {
				u.FDLabels[call] = append(u.FDLabels[call], labels...)
			}
		}
	}
	return u
}

// newCtx makes the execution context of an agent's process, its exploits
// handled by the runtime.
func (rt *Runtime) newCtx(p *kernel.Process) *framework.Ctx {
	ctx := framework.NewCtx(rt.K, p)
	ctx.OnExploit = rt.exploit
	return ctx
}

// boot brings a process-tier agent's fresh incarnation into service, at
// spawn and after each restart's checkpoint restoration: one-time
// initialization, then the syscall lockdown, then fault injection on its
// address space (last, so the revival itself cannot be faulted back down).
func (rt *Runtime) boot(a *agent) error {
	if err := rt.initAgent(a); err != nil {
		return err
	}
	if a.policy != nil {
		if err := a.policy.Apply(a.process().Filter()); err != nil {
			return err
		}
	}
	rt.armChaos(a)
	return nil
}

// copyKind is the way a copy of an object crosses, which names the counter
// that counts it and the vclock.CostModel rate that prices it.
type copyKind uint8

const (
	// eagerCopy is a payload marshalled through the host: EagerCopies,
	// CopyCost.
	eagerCopy copyKind = iota
	// lazyCopy is a copy straight from the owner's address space into an
	// agent's (Fig. 11-(a), step 4): LazyCopies, DirectCopyCost.
	lazyCopy
	// domainCopy is a memcpy inside one address space: DomainCopies,
	// DomainCopyCost.
	domainCopy
	// grantCopy is a read-only page grant between MPK domains: neither
	// counted nor charged (the copy the simulation makes keeps object
	// identity per table).
	grantCopy
)

// count counts one copy of n bytes by its kind.
func (rt *Runtime) count(kind copyKind, n int) {
	if kind == grantCopy {
		return
	}
	rt.Metrics.Update(func(m *metrics.Snapshot) {
		switch kind {
		case eagerCopy:
			m.EagerCopies++
		case lazyCopy:
			m.LazyCopies++
		default:
			m.DomainCopies++
		}
		m.BytesMoved += uint64(n)
	})
}

// charge counts one copy of n bytes and charges its price to the clock.
func (rt *Runtime) charge(kind copyKind, n int) {
	rt.count(kind, n)
	switch kind {
	case eagerCopy:
		rt.K.Clock.Advance(rt.K.Cost.CopyCost(n))
	case lazyCopy:
		rt.K.Clock.Advance(rt.K.Cost.DirectCopyCost(n))
	case domainCopy:
		rt.K.Clock.Advance(rt.K.Cost.DomainCopyCost(n))
	}
}

// copyInto copies src, the object ref names, into ctx's space and table
// and returns its id there. The copy is charged by kind and tagged with
// key, a domain's protection key (0 leaves it untagged).
func (rt *Runtime) copyInto(ctx *framework.Ctx, key mem.Key, kind copyKind, ref object.Ref, src object.Object) (uint64, error) {
	o, err := object.CopyInto(ctx.P.Space(), ref, src)
	if err != nil {
		return 0, err
	}
	rt.charge(kind, o.Region().Size)
	id := ctx.Table.Put(o)
	if key != 0 {
		_ = ctx.P.Space().SetKey(o.Region(), key)
	}
	return id, nil
}

// deref resolves a ref one of agent a's calls names, in a's context ctx:
// to a's own object, to a's cached copy of that version of it, or to a
// fresh copy from its owner — a lazy copy, or a page grant when the owner
// shares a's address space (another domain's object). Mutations in the
// owner change the hash a fresh ref carries, so a stale cache entry misses.
// A process-tier agent copies out of the host's space under hostMu.
func (rt *Runtime) deref(a *agent, ctx *framework.Ctx, ref object.Ref) (uint64, error) {
	if ref.PID == uint32(ctx.P.PID()) {
		return a.resolveID(ref.ID), nil
	}
	key := derefKey{pid: ref.PID, id: ref.ID, hash: ref.Hash}
	a.mu.Lock()
	id, cached := a.deref[key]
	a.mu.Unlock()
	if cached {
		if _, ok := ctx.Table.Get(id); ok {
			return id, nil
		}
	}
	src, err := rt.remoteObject(ref)
	if err != nil {
		return 0, err
	}
	kind := lazyCopy
	if src.Space() == ctx.P.Space() {
		kind = grantCopy
	} else if src.Space() == rt.Host.Space() {
		rt.hostMu.Lock()
		defer rt.hostMu.Unlock()
	}
	id, err = rt.copyInto(ctx, a.key, kind, ref, src)
	if err != nil {
		return 0, err
	}
	a.mu.Lock()
	a.deref[key] = id
	a.mu.Unlock()
	return id, nil
}

// splitResults sorts an invocation's results into handles, made by handle
// from each result of kind obj, and plain values, each in result order. A
// slice is made only when the results hold a value of its sort, and at its
// exact length.
func splitResults(results []framework.Value, obj framework.ValueKind, handle func(i int, v framework.Value) (Handle, error)) ([]Handle, []framework.Value, error) {
	objs := 0
	for _, v := range results {
		if v.Kind == obj {
			objs++
		}
	}
	var handles []Handle
	var plain []framework.Value
	if objs > 0 {
		handles = make([]Handle, 0, objs)
	}
	if objs < len(results) {
		plain = make([]framework.Value, 0, len(results)-objs)
	}
	for i, v := range results {
		if v.Kind != obj {
			plain = append(plain, v)
			continue
		}
		h, err := handle(i, v)
		if err != nil {
			return nil, nil, err
		}
		handles = append(handles, h)
	}
	return handles, plain, nil
}

// hostResults sorts results that are objects in the host's own table
// into handles and plain values.
func hostResults(results []framework.Value) ([]Handle, []framework.Value, error) {
	return splitResults(results, framework.ValObj, func(_ int, v framework.Value) (Handle, error) {
		return Handle{local: v.Obj, materialized: true}, nil
	})
}

// --- process tier ------------------------------------------------------------

// callProcess crosses into a process-tier agent: the call is marshalled
// (LDC passes refs), runs over the agent's connection under the
// supervision policy, and each object result comes back as a ref (LDC) or
// materialized through the host process (Fig. 11-(b)).
func (rt *Runtime) callProcess(a *agent, api *framework.API, args []framework.Value) ([]Handle, []framework.Value, error) {
	call, err := rt.marshalArgs(args)
	if err != nil {
		return nil, nil, err
	}
	call.API = api.Name

	a.callMu.Lock()
	defer a.callMu.Unlock()
	if err := rt.callAgent(a, call); err != nil {
		return nil, nil, err
	}
	reply := &a.reply

	return splitResults(reply.Results, framework.ValRef, func(i int, v framework.Value) (Handle, error) {
		if rt.Config.LazyDataCopy {
			// The decoded header lives in the agent's reply storage,
			// which the next call overwrites: the handle keeps a copy.
			ref := v.Ref
			ref.Header = bytes.Clone(ref.Header)
			return Handle{ref: ref}, nil
		}
		// Materialize through the host process (Fig. 11-(b)).
		payload := reply.Payloads[i]
		o, err := object.Rebuild(rt.Host.Space(), v.Ref, payload)
		if err != nil {
			return Handle{}, err
		}
		rt.charge(eagerCopy, len(payload))
		return Handle{local: rt.hostCtx.Table.Put(o), materialized: true}, nil
	})
}

// --- domain tier -------------------------------------------------------------

// hostCriticalKey is the protection key reserved for host objects under
// temporal/critical protection when any partition runs as an MPK domain:
// RegisterCritical tags such objects with it, and domainEnter revokes it,
// so payload code running inside a compromised domain faults on host
// secrets exactly as a cross-domain access does. Domain partitions
// allocate keys 1..MaxKey-1; key 0 stays the default (always-allowed)
// domain.
const hostCriticalKey = mem.MaxKey

// allocDomainKey hands out the next protection key in spawn order.
// Partitions spawn in sorted id order, so key assignment — and every fault
// address derived from it — is deterministic across runs.
func (rt *Runtime) allocDomainKey() (mem.Key, error) {
	next := rt.nextDomainKey
	if next == 0 {
		next = 1
	}
	if next >= hostCriticalKey {
		return 0, fmt.Errorf("core: out of protection keys (%d domain partitions max)", hostCriticalKey-1)
	}
	rt.nextDomainKey = next + 1
	rt.domainKeys = append(rt.domainKeys, next)
	return next, nil
}

// callDomain crosses into a domain-tier agent with no IPC and no
// serialization. Arguments resolve at host trust, before the PKRU
// narrows: copies and grants land in the domain's table tagged with its
// key. The API runs between one WRPKRU-class switch in and one out.
// Result pages are tagged with the domain's key — they are partition
// state, and other domains fault on them until granted. Under LDC a
// result is a plain ref (the host reads it at steady-state PKRU for
// free); without LDC it is copied into the host table in-space. The whole
// crossing holds hostMu, so no other crossing in the host's address space
// runs while the PKRU is narrowed.
func (rt *Runtime) callDomain(a *agent, api *framework.API, args []framework.Value) ([]Handle, []framework.Value, error) {
	rt.hostMu.Lock()
	defer rt.hostMu.Unlock()
	if !a.process().Alive() {
		return nil, nil, fmt.Errorf("%w: domain %s is dead", ipc.ErrAgentCrashed, a.name)
	}
	ctx := a.context()
	local, err := rt.domainArgs(a, ctx, args)
	if err != nil {
		return nil, nil, rt.domainCrash(a, err)
	}
	rt.domainEnter(a)
	results, err := api.Exec(ctx, local)
	if err == nil && ((rt.Config.CheckpointStateful && api.Stateful) || rt.Config.CheckpointAll) {
		rt.checkpointObjects(a, ctx, api, local, results)
	}
	rt.domainExit(a)
	if err != nil {
		return nil, nil, rt.domainCrash(a, err)
	}
	return splitResults(results, framework.ValObj, func(_ int, v framework.Value) (Handle, error) {
		ref, err := ctx.Table.RefFor(v.Obj)
		if err != nil {
			return Handle{}, err
		}
		o, ok := ctx.Table.Get(v.Obj)
		if ok {
			_ = ctx.P.Space().SetKey(o.Region(), a.key)
		}
		if rt.Config.LazyDataCopy {
			return Handle{ref: ref}, nil
		}
		id, err := rt.copyInto(rt.hostCtx, 0, domainCopy, ref, o)
		return Handle{local: id, materialized: true}, err
	})
}

// domainEnter narrows the PKRU to the entering domain: every other
// partition's key — and the host-critical key — is revoked for both reads
// and writes, so any access the executing domain makes outside its own
// state faults deterministically (mem.keyAllows). One WRPKRU-class switch
// is charged. The PKRU is the host address space's, so the caller holds
// hostMu from before domainEnter until after domainExit.
func (rt *Runtime) domainEnter(a *agent) {
	space := rt.Host.Space()
	for _, k := range rt.domainKeys {
		own := k == a.key
		space.SetKeyAccess(k, own, own)
	}
	space.SetKeyAccess(hostCriticalKey, false, false)
	rt.Metrics.Update(func(m *metrics.Snapshot) { m.DomainSwitches++ })
	rt.K.Clock.Advance(rt.K.Cost.DomainSwitchCost())
}

// domainExit restores the steady-state PKRU (all keys allowed — the host
// is the trusted monitor) and charges the second switch.
func (rt *Runtime) domainExit(a *agent) {
	space := rt.Host.Space()
	for _, k := range rt.domainKeys {
		space.SetKeyAccess(k, true, true)
	}
	space.SetKeyAccess(hostCriticalKey, true, true)
	rt.Metrics.Update(func(m *metrics.Snapshot) { m.DomainSwitches++ })
	rt.K.Clock.Advance(rt.K.Cost.DomainSwitchCost())
}

// domainCrash classifies a domain-tier failure. A domain whose process
// died did so inside the host's address space: the host goes down with it
// (no fault isolation at this tier), and the error is crash-class so the
// serving layer drains and replaces the shard. Failures that left the
// domain alive are plain application errors.
func (rt *Runtime) domainCrash(a *agent, err error) error {
	if a.process().Alive() {
		return err
	}
	rt.K.Crash(rt.Host, fmt.Sprintf("domain %s died in shared address space", a.name))
	return fmt.Errorf("%w: %s: %v", ipc.ErrAgentCrashed, a.name, err)
}

// domainArgs converts caller values into domain-local values: a host
// object crosses as an in-space copy (a plain memcpy, no serialization),
// and a ref resolves through deref — a page grant when another domain owns
// it, a lazy copy when a process-tier agent does.
func (rt *Runtime) domainArgs(a *agent, ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
	local := make([]framework.Value, len(args))
	for i, v := range args {
		switch v.Kind {
		case framework.ValObj:
			o, ok := rt.hostCtx.Table.Get(v.Obj)
			if !ok {
				return nil, fmt.Errorf("core: dangling host object %d", v.Obj)
			}
			ref, err := rt.hostCtx.Table.RefFor(v.Obj)
			if err != nil {
				return nil, err
			}
			id, err := rt.copyInto(ctx, a.key, domainCopy, ref, o)
			if err != nil {
				return nil, err
			}
			local[i] = framework.Obj(id)
		case framework.ValRef:
			id, err := rt.deref(a, ctx, v.Ref)
			if err != nil {
				return nil, err
			}
			local[i] = framework.Obj(id)
		default:
			local[i] = v
		}
	}
	return local, nil
}
