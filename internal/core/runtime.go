package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/object"
)

// definedObject tracks one object created during a framework state, for
// temporal permission enforcement (§4.4.3).
type definedObject struct {
	space  *mem.AddressSpace
	region mem.Region
}

// exemptKey identifies an object exempt from temporal protection: state
// owned by a stateful API must stay writable across framework states
// (§A.2.4 — the API mutates it on every call).
type exemptKey struct {
	space *mem.AddressSpace
	base  mem.Addr
}

// Runtime is the FreePart loader + dynamic library: it owns the host
// process, the agent processes, and every security policy.
type Runtime struct {
	K       *kernel.Kernel
	Reg     *framework.Registry
	Cat     *analysis.Categorization
	Config  Config
	Metrics *metrics.Counters
	// OnExploit overrides the exploit behaviour inside agents (the attack
	// layer installs payload semantics here).
	OnExploit framework.ExploitFunc

	Host    *kernel.Process
	hostCtx *framework.Ctx

	mu     sync.Mutex
	agents map[int]*agent
	// endpoints maps each process id whose table a ref can name to its
	// agent: nil for the host's own pid. A host-tier partition has none of
	// its own; its objects are the host's.
	endpoints map[uint32]*agent
	state     framework.APIType
	defined   map[framework.APIType][]definedObject
	exempt    map[exemptKey]bool
	// policies are the per-type syscall policies the agents install, nil
	// when the runtime restricts no syscalls. Read-only: a shard factory
	// hands the same map to every runtime it builds.
	policies map[framework.APIType]*analysis.AgentPolicy

	// ckptLog, when set, receives a write-through copy of every stateful-API
	// checkpoint under the session in scope — the portable store shard
	// failover restores from. ckptSession is the serving session the current
	// invocation belongs to (-1 when none); sessions serialize per shard, so
	// the scope is stable for the whole invocation.
	ckptLog     *object.CheckpointLog
	ckptSession int

	// Object lifetime (DESIGN.md, "Object lifetime"). objects holds every
	// live object a call or an adoption handed the host, keyed by owner pid
	// and id, with one bit per agent (agentBit) its ref was passed to: a
	// release must reach that agent's lazy copy too. owned lists, per
	// session, the objects created under its scope in creation order, for
	// the session's Finish to release; spareOwned recycles a finished
	// session's list. byID lists the agents in id order, fixed after New.
	objects    map[framework.Released]uint64
	owned      map[int][]framework.Released
	spareOwned []framework.Released
	byID       []*agent

	// hostMu serializes what runs in or reads the host's address space,
	// its PKRU and its execution context: a whole domain-tier call (whose
	// run narrows the PKRU), a whole in-host call (host tier and the
	// degraded path), a Fetch of an object there, and a process-tier
	// crossing's copy of one (marshalArgs, deref). A domain- or host-tier
	// API runs under it, exploit handler included, so neither may call
	// back into Call or Fetch.
	hostMu sync.Mutex

	// Domain-tier state (internal/isolation): the protection keys handed to
	// MPK-domain partitions in spawn order, the next free key, and whether
	// the policy uses any domain at all (when true, RegisterCritical also
	// tags host objects with hostCriticalKey). All written during New.
	domainKeys    []mem.Key
	nextDomainKey mem.Key
	usesDomains   bool
}

// agentPartition computes the default partition id of an API type.
func agentPartition(t framework.APIType) int {
	switch t {
	case framework.TypeLoading:
		return 0
	case framework.TypeProcessing:
		return 1
	case framework.TypeVisualizing:
		return 2
	case framework.TypeStoring:
		return 3
	default:
		return 1
	}
}

// New builds a runtime: spawns the host and agent processes, wires RPC
// connections, runs one-time agent initialization, and locks down
// syscalls under policies it derives itself.
func New(k *kernel.Kernel, reg *framework.Registry, cat *analysis.Categorization, cfg Config) (*Runtime, error) {
	return newRuntime(k, reg, cat, cfg, (&shardPolicies{reg: reg, cat: cat}).of(cfg))
}

// shardPolicies derives the syscall policies of the runtimes built over one
// registry and categorization once, and hands every runtime the same
// read-only map: what a shard factory's shards and replacements install.
// A configuration whose AppAPIs differ from the last derivation's derives
// again. Shards may be built concurrently, so mu guards the derivation.
type shardPolicies struct {
	reg *framework.Registry
	cat *analysis.Categorization

	mu       sync.Mutex
	apps     []string
	policies map[framework.APIType]*analysis.AgentPolicy
}

// of returns the policies a runtime under cfg installs, nil when cfg
// restricts no syscalls.
func (s *shardPolicies) of(cfg Config) map[framework.APIType]*analysis.AgentPolicy {
	if !cfg.RestrictSyscalls {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Nil AppAPIs derive over the whole registry, an empty list over none.
	if s.policies == nil || (s.apps == nil) != (cfg.AppAPIs == nil) || !slices.Equal(s.apps, cfg.AppAPIs) {
		s.policies = analysis.New(s.reg, nil).DeriveSyscallPolicy(s.cat, cfg.AppAPIs)
		s.apps = cfg.AppAPIs
	}
	return s.policies
}

// newRuntime is New with the syscall policies given: those cfg's
// RestrictSyscalls and AppAPIs derive, which the runtime only reads (nil
// when cfg restricts no syscalls).
func newRuntime(k *kernel.Kernel, reg *framework.Registry, cat *analysis.Categorization, cfg Config, policies map[framework.APIType]*analysis.AgentPolicy) (*Runtime, error) {
	rt := &Runtime{
		K: k, Reg: reg, Cat: cat, Config: cfg,
		Metrics:     metrics.New(),
		agents:      make(map[int]*agent),
		endpoints:   make(map[uint32]*agent),
		state:       framework.TypeUnknown, // initialization state
		defined:     make(map[framework.APIType][]definedObject),
		exempt:      make(map[exemptKey]bool),
		policies:    policies,
		ckptSession: -1,
		objects:     make(map[framework.Released]uint64),
		owned:       make(map[int][]framework.Released),
	}
	rt.Host = k.Spawn("host")
	rt.hostCtx = framework.NewCtx(k, rt.Host)
	rt.endpoints[uint32(rt.Host.PID())] = nil
	rt.usesDomains = cfg.Isolation != nil && cfg.Isolation.HasTier(isolation.TierDomain)
	if cfg.Isolation != nil && (rt.usesDomains || cfg.Isolation.HasTier(isolation.TierHost)) {
		// Domain- and host-tier partitions execute APIs in contexts that
		// share the host's fate; exploit handling must route through the
		// runtime there too. Guarded so the nil-policy (and pure-process
		// "paper") path keeps the host context untouched, byte for byte.
		rt.hostCtx.OnExploit = rt.exploit
	}

	// Spawn in sorted partition order so PIDs — and everything derived
	// from them — are deterministic across runs.
	partitions := rt.partitionSet()
	ids := make([]int, 0, len(partitions))
	for id := range partitions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := rt.spawnAgent(id, partitions[id]); err != nil {
			return nil, err
		}
		rt.byID = append(rt.byID, rt.agents[id])
	}

	// Arm the kernel injector only after every agent is up: chaos models
	// steady-state faults, not boot failures (those would abort New).
	if cfg.Chaos != nil {
		cfg.Chaos.Bind(k.Clock, rt.Metrics)
		k.SetInjector(cfg.Chaos)
	}
	return rt, nil
}

// partitionSet computes partition id -> homed types. The default is the
// paper's four type partitions; custom PartitionOf functions (Fig. 4)
// produce K partitions whose type sets derive from the APIs they hold.
func (rt *Runtime) partitionSet() map[int]map[framework.APIType]bool {
	out := make(map[int]map[framework.APIType]bool)
	if rt.Config.PartitionOf == nil {
		for _, t := range framework.ConcreteTypes() {
			out[agentPartition(t)] = map[framework.APIType]bool{t: true}
		}
		return out
	}
	for i := 0; i < rt.Config.Partitions; i++ {
		out[i] = make(map[framework.APIType]bool)
	}
	for _, api := range rt.Reg.All() {
		id := rt.Config.PartitionOf(api)
		if _, ok := out[id]; !ok {
			out[id] = make(map[framework.APIType]bool)
		}
		out[id][rt.Cat.TypeOf(api.Name)] = true
	}
	return out
}

// initAgent performs the one-time initialization syscalls that the
// steady-state filter forbids (§4.4.1): the visualizing agent opens its
// GUI socket before lockdown.
func (rt *Runtime) initAgent(a *agent) error {
	if a.types[framework.TypeVisualizing] {
		return rt.K.GUIConnect(a.process())
	}
	return nil
}

// exploit is the default in-agent exploit behaviour when the attack layer
// installs nothing: crash the hosting process.
func (rt *Runtime) exploit(ctx *framework.Ctx, cve string, payload []byte) error {
	if rt.OnExploit != nil {
		return rt.OnExploit(ctx, cve, payload)
	}
	rt.K.Crash(ctx.P, fmt.Sprintf("%s exploited", cve))
	return fmt.Errorf("%w: %s (agent crashed)", framework.ErrExploited, cve)
}

// endpoint returns the agent whose process has pid, nil for the host's
// own; ok is false for a pid no endpoint has.
func (rt *Runtime) endpoint(pid uint32) (*agent, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	a, ok := rt.endpoints[pid]
	return a, ok
}

// agentFor picks the agent that homes an API, honoring type-neutral
// context-following (§4.2.2) and custom partition functions.
func (rt *Runtime) agentFor(api *framework.API) (*agent, error) {
	if rt.Config.PartitionOf != nil {
		id := rt.Config.PartitionOf(api)
		rt.mu.Lock()
		a, ok := rt.agents[id]
		rt.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("core: no partition %d for %s", id, api.Name)
		}
		return a, nil
	}
	t := rt.Cat.TypeOf(api.Name)
	if rt.Cat.Neutral[api.Name] || api.Neutral {
		// Run neutral APIs wherever the pipeline currently is.
		rt.mu.Lock()
		cur := rt.state
		rt.mu.Unlock()
		if cur != framework.TypeUnknown {
			t = cur
		} else {
			t = framework.TypeProcessing
		}
	}
	rt.mu.Lock()
	a, ok := rt.agents[agentPartition(t)]
	rt.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no agent for type %s", t)
	}
	return a, nil
}

// Agents returns the agent processes in partition order (for inspection).
func (rt *Runtime) Agents() []*kernel.Process {
	out := make([]*kernel.Process, 0, len(rt.byID))
	for _, a := range rt.byID {
		out = append(out, a.process())
	}
	return out
}

// AgentForType returns the process currently homing the given API type:
// the first such partition in partition order.
func (rt *Runtime) AgentForType(t framework.APIType) (*kernel.Process, bool) {
	for _, a := range rt.byID {
		if a.types[t] {
			return a.process(), true
		}
	}
	return nil, false
}

// State returns the current framework state (§4.4.3).
func (rt *Runtime) State() framework.APIType {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.state
}

// HostCtx exposes the host execution context (application code runs here).
func (rt *Runtime) HostCtx() *framework.Ctx { return rt.hostCtx }

// Close shuts down all agent connections (domain- and host-tier
// partitions have none).
func (rt *Runtime) Close() {
	for _, a := range rt.byID {
		if a.conn != nil {
			a.conn.Close()
		}
	}
}

// RegisterCritical records a host-space object for temporal protection:
// it becomes read-only when the framework leaves the current state. When
// the policy runs any partition as an MPK domain, the object's pages are
// additionally tagged with the reserved host-critical protection key, so
// a domain-tier partition faults on them mid-call even for reads (the
// temporal seal alone leaves reads open).
func (rt *Runtime) RegisterCritical(r mem.Region) {
	rt.mu.Lock()
	rt.defined[rt.state] = append(rt.defined[rt.state], definedObject{space: rt.Host.Space(), region: r})
	usesDomains := rt.usesDomains
	rt.mu.Unlock()
	if usesDomains {
		_ = rt.Host.Space().SetKey(r, hostCriticalKey)
	}
}

// transition enforces §4.4.3: on a state change, every object defined
// during the previous state becomes read-only. The sealed list then goes
// back, cleared, as the previous state's list, so the next time the
// pipeline records objects in that state it appends to the same array.
func (rt *Runtime) transition(next framework.APIType) {
	rt.mu.Lock()
	if next == rt.state || next == framework.TypeUnknown {
		rt.mu.Unlock()
		return
	}
	prev := rt.state
	rt.state = next
	toProtect := rt.defined[prev]
	rt.defined[prev] = nil
	rt.mu.Unlock()

	if rt.Config.EnforcePermissions {
		for _, d := range toProtect {
			rt.mu.Lock()
			skip := rt.exempt[exemptKey{d.space, d.region.Base}]
			rt.mu.Unlock()
			if skip {
				continue
			}
			if _, err := d.space.ProtectRegion(d.region, mem.PermRead); err != nil {
				continue // freed or remapped region: nothing to protect
			}
			rt.Metrics.Update(func(m *metrics.Snapshot) { m.PermFlips++ })
			rt.K.Clock.Advance(rt.K.Cost.MProtect)
		}
	}
	clear(toProtect)
	rt.mu.Lock()
	// A concurrent caller may have re-entered prev and recorded objects
	// there meanwhile; those stay, and the array goes.
	if len(rt.defined[prev]) == 0 {
		rt.defined[prev] = toProtect[:0]
	}
	rt.mu.Unlock()
}

// recordResults registers result objects as live host handles, owned by
// the session in scope if any, and as defined in the current state.
func (rt *Runtime) recordResults(handles []Handle) {
	for _, h := range handles {
		k := rt.keyOf(h)
		_, o, _ := rt.lookup(k)
		rt.mu.Lock()
		rt.trackLocked(k, rt.ckptSession)
		if o != nil {
			rt.defined[rt.state] = append(rt.defined[rt.state], definedObject{space: o.Space(), region: o.Region()})
		}
		rt.mu.Unlock()
	}
}

// keepWritable exempts the object behind h from temporal sealing, as the
// state of a stateful API (§A.2.4 — the API mutates it on every call). It
// returns where the object lives; ok is false for a dangling handle.
func (rt *Runtime) keepWritable(h Handle) (space *mem.AddressSpace, region mem.Region, ok bool) {
	space, region, ok = rt.Locate(h)
	if ok {
		rt.mu.Lock()
		rt.exempt[exemptKey{space, region.Base}] = true
		rt.mu.Unlock()
	}
	return space, region, ok
}

// Call interposes one framework API invocation from the host program: it
// drives the temporal state machine, routes to the owning partition,
// crosses its isolation boundary moving data per the LDC policy, and
// returns handles to the results.
func (rt *Runtime) Call(apiName string, args ...framework.Value) ([]Handle, []framework.Value, error) {
	api, ok := rt.Reg.Get(apiName)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown API %s", apiName)
	}
	for _, v := range args {
		if err := rt.checkArg(v); err != nil {
			return nil, nil, fmt.Errorf("core: %s: %w", apiName, err)
		}
	}
	rt.Metrics.Update(func(m *metrics.Snapshot) { m.APICalls++ })

	// State machine first: the call's type defines the new state, and the
	// transition protects the previous state's objects before the agent
	// touches anything (Fig. 3).
	t := rt.Cat.TypeOf(apiName)
	if !(rt.Cat.Neutral[apiName] || api.Neutral) {
		rt.transition(t)
	}

	a, err := rt.agentFor(api)
	if err != nil {
		return nil, nil, err
	}

	// Objects flowing through a stateful API are its internal state: the
	// runtime keeps them writable across framework states, restoring write
	// access if a prior transition already sealed them.
	if api.Stateful {
		for _, v := range args {
			if v.Kind != framework.ValRef {
				continue
			}
			space, region, ok := rt.keepWritable(Handle{ref: v.Ref})
			if ok && rt.Config.EnforcePermissions {
				if perm, mapped := space.PermAt(region.Base); mapped && !perm.CanWrite() {
					if _, perr := space.ProtectRegion(region, mem.PermRW); perr == nil {
						rt.Metrics.Update(func(m *metrics.Snapshot) { m.PermFlips++ })
						rt.K.Clock.Advance(rt.K.Cost.MProtect)
					}
				}
			}
		}
	}

	var handles []Handle
	var plain []framework.Value
	if a.isDegraded() {
		// A partition the circuit breaker demoted runs in-host (§4.4.2's
		// availability escape hatch): no isolation, but the pipeline
		// survives.
		handles, plain, err = rt.callDegraded(api, args)
	} else {
		rt.noteCopies(a, args)
		switch a.tier {
		case isolation.TierHost:
			handles, plain, err = rt.callInHost(api, args)
		case isolation.TierDomain:
			handles, plain, err = rt.callDomain(a, api, args)
		default:
			handles, plain, err = rt.callProcess(a, api, args)
		}
		// The DoS resource watchdog watches the crossing for partitions
		// that share the host's fate: a domain- or host-tier invocation
		// that kills the host is the one attack shape those tiers cannot
		// contain — so it is at least *detected* here and reported to the
		// anomaly hook. Observation only: no clock advance, no state
		// change, nothing when the hook is nil.
		if rt.Config.OnAnomaly != nil && a.tier != isolation.TierProcess && !rt.Host.Alive() {
			rt.Metrics.Update(func(m *metrics.Snapshot) { m.WatchdogTrips++ })
			rt.Config.OnAnomaly(t, apiName, "host-crash",
				fmt.Sprintf("%s-tier invocation killed the host", a.tier))
		}
		if errors.Is(err, errAgentDegraded) {
			// The breaker tripped while this very call was being supervised.
			handles, plain, err = rt.callDegraded(api, args)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if api.Stateful {
		for _, h := range handles {
			rt.keepWritable(h)
		}
	}
	rt.recordResults(handles)
	return handles, plain, nil
}

// emptyPayloads backs noPayloads. Nothing writes to it.
var emptyPayloads [16][]byte

// noPayloads returns a payload list of n empty payloads, the list a call
// or reply that ships no object carries. It shares one array nothing
// writes, so the list is not built per message; its capacity is n, so an
// append cannot write there either.
func noPayloads(n int) [][]byte {
	if n > len(emptyPayloads) {
		return make([][]byte, n)
	}
	return emptyPayloads[:n:n]
}

// marshalArgs converts host-side argument values into wire form: handle
// refs pass as-is (LDC) and host-local objects ship as deep copies, counted
// here and charged as wire bytes. When nothing converts, the call carries
// args itself.
func (rt *Runtime) marshalArgs(args []framework.Value) (framework.Call, error) {
	eager := false
	for _, v := range args {
		if v.Kind == framework.ValObj || (v.Kind == framework.ValRef && !rt.Config.LazyDataCopy) {
			eager = true
			break
		}
	}
	if !eager {
		return framework.Call{Args: args, Payloads: noPayloads(len(args))}, nil
	}
	rt.hostMu.Lock()
	defer rt.hostMu.Unlock()
	call := framework.Call{
		Args:     make([]framework.Value, len(args)),
		Payloads: make([][]byte, len(args)),
	}
	for i, v := range args {
		switch v.Kind {
		case framework.ValObj:
			// Host-owned object: deep-copy its payload across (§4.3).
			o, ok := rt.hostCtx.Table.Get(v.Obj)
			if !ok {
				return framework.Call{}, fmt.Errorf("core: dangling host object %d", v.Obj)
			}
			ref, err := rt.hostCtx.Table.RefFor(v.Obj)
			if err != nil {
				return framework.Call{}, err
			}
			payload, err := object.PayloadBytes(o)
			if err != nil {
				return framework.Call{}, err
			}
			rt.count(eagerCopy, len(payload))
			call.Args[i] = framework.RefVal(ref)
			call.Payloads[i] = payload
		case framework.ValRef:
			if rt.Config.LazyDataCopy {
				call.Args[i] = v
				continue
			}
			// Without LDC a ref should never escape; materialize defensively.
			src, err := rt.remoteObject(v.Ref)
			if err != nil {
				return framework.Call{}, err
			}
			payload, err := object.PayloadBytes(src)
			if err != nil {
				return framework.Call{}, err
			}
			rt.count(eagerCopy, len(payload))
			call.Args[i] = v
			call.Payloads[i] = payload
		default:
			call.Args[i] = v
		}
	}
	return call, nil
}

// Locate returns the address space and region behind a handle, for
// inspection (tests, attack analysis). ok is false for dangling handles.
func (rt *Runtime) Locate(h Handle) (*mem.AddressSpace, mem.Region, bool) {
	if h.materialized {
		o, ok := rt.hostCtx.Table.Get(h.local)
		if !ok {
			return nil, mem.Region{}, false
		}
		return o.Space(), o.Region(), true
	}
	o, err := rt.remoteObject(h.ref)
	if err != nil {
		return nil, mem.Region{}, false
	}
	return o.Space(), o.Region(), true
}

// RestartDead revives every crashed or killed agent under the restart
// policy (the standalone supervisor of §4.4.2). It is also invoked
// automatically when a call observes a crash. Only process-tier
// partitions are restartable: a dead domain- or host-tier partition
// means the host process itself is gone.
func (rt *Runtime) RestartDead() error {
	for _, a := range rt.byID {
		if a.tier != isolation.TierProcess {
			continue
		}
		if !a.process().Alive() {
			if err := rt.superviseRestart(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fetch materializes a handle's payload into the host address space and
// returns the bytes — the host program dereferencing a result. An object
// already in the host's address space (materialized in the host, or a
// domain's) is read under hostMu. A domain's object pays the in-space copy
// rate, and a process-tier agent's a lazy copy.
func (rt *Runtime) Fetch(h Handle) ([]byte, error) {
	if h.materialized {
		o, ok := rt.hostCtx.Table.Get(h.local)
		if !ok {
			return nil, fmt.Errorf("%w: host object %d", ErrReleased, h.local)
		}
		rt.hostMu.Lock()
		defer rt.hostMu.Unlock()
		return object.PayloadBytes(o)
	}
	if err := rt.checkArg(h.Value()); err != nil {
		return nil, err
	}
	src, err := rt.remoteObject(h.ref)
	if err != nil {
		return nil, err
	}
	kind := lazyCopy
	if src.Space() == rt.Host.Space() {
		kind = domainCopy
		rt.hostMu.Lock()
		defer rt.hostMu.Unlock()
	}
	payload, err := object.PayloadBytes(src)
	if err != nil {
		return nil, err
	}
	rt.charge(kind, len(payload))
	return payload, nil
}

// SetCheckpointLog attaches the serving layer's portable checkpoint log.
// Stateful-API checkpoints taken while a session scope is set are written
// through to the log, and Adopt materializes log entries into this runtime.
// Called by the executor at shard construction and replacement.
func (rt *Runtime) SetCheckpointLog(l *object.CheckpointLog) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ckptLog = l
}

// SetSessionScope marks the serving session the next invocations belong to
// (-1 clears the scope). The executor sets it around each session job while
// holding the shard lock, so invocations on one runtime never observe
// another session's scope.
func (rt *Runtime) SetSessionScope(session int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ckptSession = session
}

// SessionScope returns the serving session the current invocation belongs
// to (-1 when none) — the attribution handle defense sensors use to map an
// in-flight exploit back to the tenant that sent it.
func (rt *Runtime) SessionScope() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ckptSession
}

// checkpointScope reads the attached log and current session scope.
func (rt *Runtime) checkpointScope() (*object.CheckpointLog, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ckptLog, rt.ckptSession
}

// adoptTarget picks the agent a checkpoint materializes into: the agent
// whose pid matches the slot's owner if shard layouts line up (factories
// spawn deterministically, so a replacement shard has the same pid map),
// otherwise the agent homing the checkpoint's API type.
func (rt *Runtime) adoptTarget(cp object.Checkpoint) (*agent, error) {
	if a, _ := rt.endpoint(uint32(cp.Key.Slot >> 32)); a != nil {
		return a, nil
	}
	t := framework.APIType(cp.Type)
	for _, a := range rt.byID {
		if a.types[t] {
			return a, nil
		}
	}
	return nil, fmt.Errorf("core: no agent homes type %s for checkpoint adoption", t)
}

// Adopt materializes one portable checkpoint into this runtime: the state
// object is rebuilt inside the owning-type agent's address space, registered
// in its table, marked exempt from temporal sealing (stateful state stays
// writable, §A.2.4), recorded in the agent's local checkpoint map (so later
// restarts of this shard restore it too), and re-appended to the log under
// its new slot so a second failover finds it. Returns a handle valid on this
// runtime — the migrated session's replacement for its old-shard handle.
// The restart map and the log keep cp's header and payload as they are
// (the log's readers hand out copies), so the caller must not write to
// them afterwards.
//
// Materializing writes into the agent's space, so a fault can kill the agent
// mid-adoption. Like a call, Adopt then revives it through the supervisor
// and retries within RetryBudget.
func (rt *Runtime) Adopt(session int, cp object.Checkpoint) (Handle, error) {
	a, err := rt.adoptTarget(cp)
	if err != nil {
		return Handle{}, err
	}
	for attempt := 0; ; attempt++ {
		h, err := rt.adopt(a, session, cp)
		if err == nil || a.process().Alive() || !rt.Config.Restart || attempt >= rt.Config.RetryBudget {
			return h, err
		}
		if rerr := rt.superviseRestart(a); rerr != nil {
			return Handle{}, fmt.Errorf("core: restart failed: %w (after %v)", rerr, err)
		}
		if a.isDegraded() {
			return Handle{}, err
		}
	}
}

// adopt is one attempt of Adopt against agent a.
func (rt *Runtime) adopt(a *agent, session int, cp object.Checkpoint) (Handle, error) {
	ctx := a.context()
	o, err := cp.Materialize(ctx.P.Space())
	if err != nil {
		return Handle{}, fmt.Errorf("core: checkpoint materialize: %w", err)
	}
	id := ctx.Table.Put(o)
	a.mu.Lock()
	a.checkpoints[id] = checkpoint{kind: cp.Kind, header: cp.Header, payload: cp.Payload}
	a.mu.Unlock()
	rt.Metrics.Update(func(m *metrics.Snapshot) { m.Checkpoints++ })
	rt.K.Clock.Advance(rt.K.Cost.CopyCost(len(cp.Payload)))

	ref, err := ctx.Table.RefFor(id)
	if err != nil {
		return Handle{}, err
	}
	rt.mu.Lock()
	rt.exempt[exemptKey{o.Space(), o.Region().Base}] = true
	rt.trackLocked(refKey(ref), session)
	log := rt.ckptLog
	rt.mu.Unlock()

	if log != nil {
		// cp is the caller's copy of the adopted checkpoint, now shared
		// with the restart map above; neither writes to it.
		cp.Key = object.CheckpointKey{Session: session, Slot: object.Slot(uint32(ctx.P.PID()), id)}
		log.AppendOwned(cp)
	}
	return Handle{ref: ref}, nil
}

// SealObject applies intra-process PKU-style protection to an
// agent-resident object (§7's complementary hardening, Hodor/ERIM-style):
// the object's pages join the given protection key domain with stores
// disabled, so even code running *inside* a compromised agent — payloads
// included — faults when writing it. Reads stay allowed so the APIs keep
// consuming the data.
func (rt *Runtime) SealObject(h Handle, key mem.Key) error {
	space, region, ok := rt.Locate(h)
	if !ok {
		return fmt.Errorf("core: cannot locate object to seal")
	}
	if err := space.SetKey(region, key); err != nil {
		return err
	}
	return space.SetKeyAccess(key, true, false)
}
