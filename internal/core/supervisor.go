package core

import (
	"errors"
	"fmt"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
)

// errAgentDegraded signals internally that the circuit breaker demoted the
// target partition mid-call; Call reroutes to in-host execution.
var errAgentDegraded = errors.New("core: agent degraded to in-host execution")

// superviseRestart is the policy around restartAgent: it serializes
// concurrent revivals of one agent, charges exponential crash-loop backoff
// to the virtual clock, and trips the circuit breaker when one partition
// keeps dying inside the breaker window. On a tripped breaker the partition
// is left degraded (in-host execution) rather than restarted forever.
func (rt *Runtime) superviseRestart(a *agent) error {
	a.restartMu.Lock()
	defer a.restartMu.Unlock()
	if a.isDegraded() || a.process().Alive() {
		// Another caller already revived (or demoted) it.
		return nil
	}

	streak := a.bumpStreak()
	if rt.Config.BackoffBase > 0 {
		shift := streak - 1
		if shift > 20 {
			shift = 20
		}
		d := rt.Config.BackoffBase << uint(shift)
		if rt.Config.BackoffCap > 0 && d > rt.Config.BackoffCap {
			d = rt.Config.BackoffCap
		}
		rt.K.Clock.Advance(d)
	}

	// An injected fault can kill the fresh incarnation during its own
	// re-initialization (e.g. the visualizing agent reopening its GUI
	// socket); give the revival the same budget as a call.
	err := rt.restartAgent(a)
	for tries := 0; err != nil && !a.process().Alive() && tries < rt.Config.RetryBudget; tries++ {
		err = rt.restartAgent(a)
	}
	if err != nil {
		return err
	}

	if rt.Config.BreakerThreshold > 0 {
		n := a.recordRestart(rt.K.Clock.Now(), rt.Config.BreakerWindow)
		if n >= rt.Config.BreakerThreshold && a.setDegraded() {
			rt.Metrics.Update(func(m *metrics.Snapshot) { m.Degraded++ })
			if rt.Config.Chaos != nil {
				rt.Config.Chaos.Note("supervisor/degrade",
					fmt.Sprintf("%s after %d restarts in window", a.name, n))
			}
		}
	}
	return nil
}

// callDegraded executes an API in the host process on behalf of a degraded
// partition: availability bought by a recorded security downgrade.
//
// Under a serving session (a portable checkpoint log is attached and a
// session is in scope) the degraded path is refused instead: in-host
// execution cannot honor the portable-checkpoint contract — mutations would
// bypass the log and freshly created objects have no cross-shard identity —
// so a tripped breaker surfaces as a crash-class failure. The executor
// treats loss of isolation as loss of the shard: it drains it and re-runs
// the invocation on an isolated replacement. The API never executes here,
// so the re-run stays exactly-once.
func (rt *Runtime) callDegraded(api *framework.API, args []framework.Value) ([]Handle, []framework.Value, error) {
	if log, session := rt.checkpointScope(); log != nil && session >= 0 {
		return nil, nil, fmt.Errorf("%w: breaker degraded a partition under serving session %d", ipc.ErrAgentCrashed, session)
	}
	rt.Metrics.Update(func(m *metrics.Snapshot) { m.DegradedCalls++ })
	return rt.callInHost(api, args)
}

// callInHost executes an API in the host process: argument refs are
// copied into the host space, a non-stateful API gets sealed host objects
// as writable copies (unsealed; a stateful API's writes are its state and
// must land in place), and the API runs with no isolation. This is both
// the breaker's degraded path (via callDegraded, which also counts the
// downgrade) and the host tier, where running unprotected is the policy's
// explicit choice. The whole call holds hostMu: it runs on the host's
// context, in the host's address space.
func (rt *Runtime) callInHost(api *framework.API, args []framework.Value) ([]Handle, []framework.Value, error) {
	rt.hostMu.Lock()
	defer rt.hostMu.Unlock()
	local := make([]framework.Value, len(args))
	for i, v := range args {
		switch {
		case v.Kind == framework.ValObj && !api.Stateful:
			id, err := rt.unsealed(v.Obj)
			if err != nil {
				return nil, nil, err
			}
			local[i] = framework.Obj(id)
		case v.Kind == framework.ValRef:
			src, err := rt.remoteObject(v.Ref)
			if err != nil {
				return nil, nil, err
			}
			id, err := rt.copyInto(rt.hostCtx, 0, eagerCopy, v.Ref, src)
			if err != nil {
				return nil, nil, err
			}
			local[i] = framework.Obj(id)
		default:
			local[i] = v
		}
	}
	results, err := api.Exec(rt.hostCtx, local)
	if err != nil {
		return nil, nil, err
	}
	return hostResults(results)
}

// unsealed returns host object id, or, when the temporal state machine has
// sealed the object read-only, the id of a writable copy of it. A
// process-tier agent works on its own lazy copy of an earlier state's
// object; this gives in-host execution the same: an API that writes its
// argument in place (cv.rectangle draws on its canvas) writes the copy,
// and the sealed original stays as it was. The copy is one memcpy inside
// the host's address space, priced and counted as a host object crossing
// into an MPK domain.
func (rt *Runtime) unsealed(id uint64) (uint64, error) {
	o, ok := rt.hostCtx.Table.Get(id)
	if !ok {
		return id, nil // dangling: the API reports it
	}
	if perm, mapped := o.Space().PermAt(o.Region().Base); !mapped || perm.CanWrite() {
		return id, nil
	}
	ref, err := rt.hostCtx.Table.RefFor(id)
	if err != nil {
		return 0, err
	}
	return rt.copyInto(rt.hostCtx, 0, domainCopy, ref, o)
}

// armChaos threads the fault-injection engine into one agent: the RPC
// connection gets the message injector, and the agent's current address
// space gets the spurious-fault hook. Called at spawn and after every
// restart (a restart replaces the space). The hook crashes the agent
// process, turning a spurious memory fault into the crash-restart path.
func (rt *Runtime) armChaos(a *agent) {
	eng := rt.Config.Chaos
	if eng == nil {
		return
	}
	a.conn.SetInjector(eng)
	proc := a.process()
	space := proc.Space()
	space.SetAccessHook(func(addr mem.Addr, n int, kind mem.AccessKind) error {
		f := eng.MemFault(proc.Name(), addr, kind)
		if f == nil {
			return nil
		}
		rt.K.Crash(proc, f.Error())
		return f
	})
}
