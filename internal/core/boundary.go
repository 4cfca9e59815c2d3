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

// Boundary is one isolation mechanism behind the agent-dispatch seam: it
// owns how a partition is brought up (Spawn) and how one API invocation
// crosses into it (Invoke). Three implementations span the frontier:
//
//   - processBoundary — the paper's mechanism: a kernel process with its
//     own address space and seccomp filter, reached over per-call IPC.
//   - domainBoundary — ERIM-style MPK domain: same address space as the
//     host, partition state behind a protection key, a WRPKRU-class switch
//     charged on entry and exit, and no per-byte IPC copy for read-only
//     arguments.
//   - hostBoundary — plain in-host execution (the degraded path, selected
//     deliberately): zero switch cost, blocks nothing.
//
// Invoke returns exactly what the legacy RPC path returned from Call's
// middle section: result handles, plain values, and an error that is
// errAgentDegraded when the circuit breaker demoted the partition
// mid-call (Call reroutes to the degraded path) or wraps
// ipc.ErrAgentCrashed for crash-class failures (the executor drains the
// shard).
type Boundary interface {
	Tier() isolation.Tier
	Spawn(rt *Runtime, a *agent) error
	Invoke(rt *Runtime, a *agent, api *framework.API, args []framework.Value) ([]Handle, []framework.Value, error)
}

// boundaryFor picks the boundary for a partition: without a policy,
// always the process tier (bit-identical to the pre-policy path);
// otherwise the strongest tier among the types the partition homes (a
// partition is as protected as its most sensitive type requires).
func (rt *Runtime) boundaryFor(types map[framework.APIType]bool) Boundary {
	pol := rt.Config.Isolation
	if pol == nil {
		return processBoundary{}
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
	switch tier {
	case isolation.TierHost:
		return hostBoundary{}
	case isolation.TierDomain:
		return domainBoundary{}
	default:
		return processBoundary{}
	}
}

// --- process tier ------------------------------------------------------------

// processBoundary is the paper's hardwired path, extracted verbatim: a
// spawned kernel process, an ipc.Conn served by the agent's handler, per-call
// marshalling with LDC, and the restart supervisor. When selected (the
// default, and the "paper" preset) every operation happens in the same
// order as before the Boundary seam existed, so replays stay byte-equal.
type processBoundary struct{}

func (processBoundary) Tier() isolation.Tier { return isolation.TierProcess }

func (processBoundary) Spawn(rt *Runtime, a *agent) error {
	proc := rt.K.Spawn(a.name)
	ctx := framework.NewCtx(rt.K, proc)
	ctx.OnExploit = rt.exploit
	ctx.Tracer = rt.Tracer
	a.proc = proc
	a.ctx = ctx
	a.conn = ipc.NewConn(rt.K.Clock, rt.K.Cost, rt.serve(a))
	if rt.policies != nil {
		// A partition homing several types gets the union policy.
		merged := &analysis.AgentPolicy{FDLabels: make(map[kernel.Sysno][]string)}
		for t := range a.types {
			if p, ok := rt.policies[t]; ok {
				merged.Allowed = append(merged.Allowed, p.Allowed...)
				merged.InitOnly = append(merged.InitOnly, p.InitOnly...)
				for call, labels := range p.FDLabels {
					merged.FDLabels[call] = append(merged.FDLabels[call], labels...)
				}
			}
		}
		a.policy = merged
	}

	rt.mu.Lock()
	rt.agents[a.id] = a
	rt.endpoints[uint32(proc.PID())] = &endpoint{
		space: func() *mem.AddressSpace { return a.process().Space() },
		table: func() *object.Table { return a.context().Table },
		agent: a,
	}
	rt.mu.Unlock()

	if err := rt.initAgent(a); err != nil {
		return err
	}
	if a.policy != nil {
		if err := a.policy.Apply(proc.Filter()); err != nil {
			return err
		}
	}
	rt.armChaos(a)
	return nil
}

func (processBoundary) Invoke(rt *Runtime, a *agent, api *framework.API, args []framework.Value) ([]Handle, []framework.Value, error) {
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
			return Handle{ref: ref, size: ref.Size, kind: ref.Kind}, nil
		}
		// Materialize through the host process (Fig. 11-(b)).
		payload := reply.Payloads[i]
		o, err := object.Rebuild(rt.Host.Space(), v.Ref, payload)
		if err != nil {
			return Handle{}, err
		}
		rt.Metrics.Update(func(m *metrics.Snapshot) {
			m.EagerCopies++
			m.BytesMoved += uint64(len(payload))
		})
		rt.K.Clock.Advance(rt.K.Cost.CopyCost(len(payload)))
		return Handle{local: rt.hostCtx.Table.Put(o), materialized: true, size: len(payload), kind: v.Ref.Kind}, nil
	})
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

// domainBoundary runs a partition as an ERIM-style protection-key domain:
// it shares the host's address space (no IPC, no serialization), tags the
// partition's objects with a dedicated mem.Key, and charges one
// WRPKRU-class switch on entry and exit. There is no per-domain seccomp
// and no restart: a domain that dies takes the host process with it
// (shared fate is the honest MPK semantics, and exactly why DoS/RCE
// classes stay unblocked at this tier).
type domainBoundary struct{}

func (domainBoundary) Tier() isolation.Tier { return isolation.TierDomain }

func (domainBoundary) Spawn(rt *Runtime, a *agent) error {
	proc := rt.K.SpawnDomain(a.name, rt.Host)
	key, err := rt.allocDomainKey()
	if err != nil {
		return err
	}
	ctx := framework.NewCtx(rt.K, proc)
	ctx.OnExploit = rt.exploit
	ctx.Tracer = rt.Tracer
	a.proc = proc
	a.ctx = ctx
	a.key = key

	rt.mu.Lock()
	rt.agents[a.id] = a
	rt.endpoints[uint32(proc.PID())] = &endpoint{
		space: func() *mem.AddressSpace { return a.process().Space() },
		table: func() *object.Table { return a.context().Table },
		agent: a,
	}
	rt.mu.Unlock()

	return rt.initAgent(a)
}

func (domainBoundary) Invoke(rt *Runtime, a *agent, api *framework.API, args []framework.Value) ([]Handle, []framework.Value, error) {
	if !a.process().Alive() {
		return nil, nil, fmt.Errorf("%w: domain %s is dead", ipc.ErrAgentCrashed, a.name)
	}
	ctx := a.context()
	// Arguments resolve at host trust, before the PKRU narrows: grants and
	// copies land in the domain's table tagged with its key.
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
	return rt.domainResults(a, ctx, results)
}

// domainEnter narrows the PKRU to the entering domain: every other
// partition's key — and the host-critical key — is revoked for both reads
// and writes, so any access the executing domain makes outside its own
// state faults deterministically (mem.keyAllows). One WRPKRU-class switch
// is charged. Entry and exit bracket api.Exec synchronously; the serving
// layer serializes invocations per runtime, and domainMu guards against
// stray concurrent callers in tests.
func (rt *Runtime) domainEnter(a *agent) {
	rt.domainMu.Lock()
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
	rt.domainMu.Unlock()
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

// domainArgs converts caller values into domain-local values. Host-owned
// objects cross via an in-address-space copy (DomainCopyCost — a plain
// memcpy, no serialization). References to objects another *domain* owns
// are consumed as read-only page grants: the same physical pages, zero
// copy cost charged (the rebuild below is a simulation artifact that keeps
// object identity per table; accounting treats it as a grant). References
// owned by a process-tier agent live in a different address space and pay
// the normal lazy direct-copy cost.
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
			no, err := object.CopyInto(ctx.P.Space(), ref, o)
			if err != nil {
				return nil, err
			}
			n := no.Region().Size
			rt.Metrics.Update(func(m *metrics.Snapshot) {
				m.DomainCopies++
				m.BytesMoved += uint64(n)
			})
			rt.K.Clock.Advance(rt.K.Cost.DomainCopyCost(n))
			id := ctx.Table.Put(no)
			_ = ctx.P.Space().SetKey(no.Region(), a.key)
			local[i] = framework.Obj(id)
		case framework.ValRef:
			ref := v.Ref
			if ref.PID == uint32(ctx.P.PID()) {
				local[i] = framework.Obj(a.resolveID(ref.ID))
				continue
			}
			key := derefKey{pid: ref.PID, id: ref.ID, hash: ref.Hash}
			a.mu.Lock()
			localID, cached := a.deref[key]
			a.mu.Unlock()
			if cached {
				if _, ok := ctx.Table.Get(localID); ok {
					local[i] = framework.Obj(localID)
					continue
				}
			}
			ep, ok := rt.endpoint(ref.PID)
			if !ok {
				return nil, fmt.Errorf("core: no endpoint for pid %d", ref.PID)
			}
			src, err := rt.remoteObject(ref)
			if err != nil {
				return nil, err
			}
			o, err := object.CopyInto(ctx.P.Space(), ref, src)
			if err != nil {
				return nil, err
			}
			// An object another domain owns is in the same address space: a
			// read-only page grant, no copy charged or counted.
			if ep.space() != ctx.P.Space() {
				n := o.Region().Size
				rt.Metrics.Update(func(m *metrics.Snapshot) {
					m.LazyCopies++
					m.BytesMoved += uint64(n)
				})
				rt.K.Clock.Advance(rt.K.Cost.DirectCopyCost(n))
			}
			id := ctx.Table.Put(o)
			_ = ctx.P.Space().SetKey(o.Region(), a.key)
			a.mu.Lock()
			a.deref[key] = id
			a.mu.Unlock()
			local[i] = framework.Obj(id)
		default:
			local[i] = v
		}
	}
	return local, nil
}

// domainResults converts domain-local results into handles. Result pages
// are tagged with the domain's key — they are partition state, and other
// domains fault on them until granted. Under LDC the handle is a plain
// reference (the host reads it at steady-state PKRU for free); without
// LDC the payload materializes into the host table via the cheap
// in-address-space copy.
func (rt *Runtime) domainResults(a *agent, ctx *framework.Ctx, results []framework.Value) ([]Handle, []framework.Value, error) {
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
			return Handle{ref: ref, size: ref.Size, kind: ref.Kind}, nil
		}
		no, err := object.CopyInto(rt.Host.Space(), ref, o)
		if err != nil {
			return Handle{}, err
		}
		n := no.Region().Size
		rt.Metrics.Update(func(m *metrics.Snapshot) {
			m.DomainCopies++
			m.BytesMoved += uint64(n)
		})
		rt.K.Clock.Advance(rt.K.Cost.DomainCopyCost(n))
		return Handle{local: rt.hostCtx.Table.Put(no), materialized: true, size: n, kind: ref.Kind}, nil
	})
}

// --- host tier ---------------------------------------------------------------

// hostBoundary runs the partition's APIs in the host process itself — the
// existing in-host execution path, selected by policy instead of by a
// tripped circuit breaker. Zero switch cost, zero copies, zero
// containment: this is the unprotected baseline of the frontier.
type hostBoundary struct{}

func (hostBoundary) Tier() isolation.Tier { return isolation.TierHost }

func (hostBoundary) Spawn(rt *Runtime, a *agent) error {
	a.proc = rt.Host
	a.ctx = rt.hostCtx
	rt.mu.Lock()
	rt.agents[a.id] = a
	rt.mu.Unlock()
	// One-time init still applies (the GUI socket opens from the host);
	// the host endpoint is already registered, with no agent indirection.
	return rt.initAgent(a)
}

func (hostBoundary) Invoke(rt *Runtime, a *agent, api *framework.API, args []framework.Value) ([]Handle, []framework.Value, error) {
	return rt.callInHost(api, args)
}
