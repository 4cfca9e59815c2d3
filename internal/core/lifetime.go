package core

import (
	"errors"
	"fmt"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/object"
)

// ErrReleased is returned, at the host, for a Call argument, a Fetch or a
// Release that names an object the host no longer holds: it was released,
// or it was never handed out by this runtime.
var ErrReleased = errors.New("core: handle released")

// refKey names the object a ref points at.
func refKey(r object.Ref) framework.Released {
	return framework.Released{PID: r.PID, ID: r.ID}
}

// keyOf names the object behind a handle: its owner's pid and id, or, for
// a handle materialized in the host, the host's pid and the local id.
func (rt *Runtime) keyOf(h Handle) framework.Released {
	if h.materialized {
		return framework.Released{PID: uint32(rt.Host.PID()), ID: h.local}
	}
	return refKey(h.ref)
}

// checkArg fails for an argument naming an object the host does not hold:
// a ref the host never handed out or has released, or a host object that
// is not in the host's table.
func (rt *Runtime) checkArg(v framework.Value) error {
	switch v.Kind {
	case framework.ValRef:
		rt.mu.Lock()
		_, live := rt.objects[refKey(v.Ref)]
		rt.mu.Unlock()
		if !live {
			return fmt.Errorf("%w: pid=%d id=%d", ErrReleased, v.Ref.PID, v.Ref.ID)
		}
	case framework.ValObj:
		if _, ok := rt.hostCtx.Table.Get(v.Obj); !ok {
			return fmt.Errorf("%w: host object %d", ErrReleased, v.Obj)
		}
	}
	return nil
}

// trackLocked records a live object handed to the host, owned by session
// when session >= 0. An object returned a second time keeps its first
// owner. Called with rt.mu held.
func (rt *Runtime) trackLocked(k framework.Released, session int) {
	if _, ok := rt.objects[k]; ok {
		return
	}
	rt.objects[k] = 0
	if session < 0 {
		return
	}
	list, ok := rt.owned[session]
	if !ok {
		list, rt.spareOwned = rt.spareOwned, nil
	}
	rt.owned[session] = append(list, k)
}

// agentBit is agent a's bit in an object's copy mask. Ids alias modulo 64;
// an aliased bit only sends an entry to an agent that skips it.
func agentBit(a *agent) uint64 { return 1 << (uint(a.id) & 63) }

// noteCopies records that agent a is about to receive refs to objects
// other agents own: it may keep lazy copies of them, which their release
// must reach. Host-tier agents keep no copies.
func (rt *Runtime) noteCopies(a *agent, args []framework.Value) {
	if a.tier == isolation.TierHost {
		return
	}
	pid := uint32(a.process().PID())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, v := range args {
		if v.Kind != framework.ValRef || v.Ref.PID == pid {
			continue
		}
		k := refKey(v.Ref)
		if copies, ok := rt.objects[k]; ok {
			rt.objects[k] = copies | agentBit(a)
		}
	}
}

// Release ends the life of the object behind h. The host forgets it at
// once, so a later Call, Fetch or Release with h fails with ErrReleased.
// The agents holding the object or a lazy copy of it drop their copies:
// a process-tier agent when the release list rides on its next call (no
// extra round trip; the list's bytes are charged like any wire bytes), a
// domain-tier agent and the host at once, in place.
func (rt *Runtime) Release(h Handle) error {
	k := rt.keyOf(h)
	if !rt.release(k) {
		return fmt.Errorf("%w: pid=%d id=%d", ErrReleased, k.PID, k.ID)
	}
	return nil
}

// release is Release by key; it reports false for an object the host does
// not hold.
func (rt *Runtime) release(k framework.Released) bool {
	rt.mu.Lock()
	copies, live := rt.objects[k]
	delete(rt.objects, k)
	rt.mu.Unlock()
	if !live {
		return false
	}
	owner, o, ok := rt.lookup(k)
	if !ok {
		return true
	}
	if o != nil {
		rt.forget(o.Space(), o.Region().Base)
	}
	if owner == nil {
		// An object materialized in the host's own table.
		if o != nil {
			rt.hostCtx.Table.Delete(k.ID)
			_ = o.Space().Free(o.Region())
		}
	} else {
		owner.release(rt, k)
	}
	for _, a := range rt.byID {
		if a != owner && copies&agentBit(a) != 0 {
			a.release(rt, k)
		}
	}
	return true
}

// lookup finds the object k names in its owner's table. It returns the
// owner's agent, nil for the host (whose table also holds the host tier's
// objects), and the object under its current id there, which a restart
// may have remapped. o is nil when the owner no longer holds the object,
// and ok is false when no endpoint has k's pid.
func (rt *Runtime) lookup(k framework.Released) (owner *agent, o object.Object, ok bool) {
	owner, ok = rt.endpoint(k.PID)
	if !ok {
		return nil, nil, false
	}
	if owner == nil {
		o, _ = rt.hostCtx.Table.Get(k.ID)
	} else {
		o, _ = owner.context().Table.Get(owner.resolveID(k.ID))
	}
	return owner, o, true
}

// forget drops the host's temporal-protection records of a released
// object, so no later transition seals the pages, or leaves writable the
// pages, of whatever reuses its span.
func (rt *Runtime) forget(space *mem.AddressSpace, base mem.Addr) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.exempt, exemptKey{space, base})
	for t, list := range rt.defined {
		kept := list[:0]
		for _, d := range list {
			if d.space != space || d.region.Base != base {
				kept = append(kept, d)
			}
		}
		rt.defined[t] = kept
	}
}

// holdsSession reports whether any object session created is still
// recorded for release.
func (rt *Runtime) holdsSession(session int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.owned[session]
	return ok
}

// finishSession releases, in creation order, every object created under
// session's scope that is still live.
func (rt *Runtime) finishSession(session int) {
	rt.mu.Lock()
	list := rt.owned[session]
	delete(rt.owned, session)
	rt.mu.Unlock()
	for _, k := range list {
		rt.release(k)
	}
	rt.mu.Lock()
	if rt.spareOwned == nil {
		rt.spareOwned = list[:0]
	}
	rt.mu.Unlock()
}

// release hands agent a one released object. A process-tier agent gets it
// on its next call, unless the breaker degraded it: it takes no more calls,
// so nothing would deliver the entry. A domain-tier agent shares the host's
// address space, so the host frees the object in place.
func (a *agent) release(rt *Runtime, k framework.Released) {
	if a.tier == isolation.TierProcess {
		a.mu.Lock()
		if !a.degraded {
			a.pending = append(a.pending, k)
		}
		a.mu.Unlock()
		return
	}
	rt.applyReleases(a, []framework.Released{k})
}

// pendingReleases returns the release list for a's next call. The entries
// stay pending until sent drops them, so a restart while the call is in
// flight still sees them.
func (a *agent) pendingReleases() []framework.Released {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pending[:len(a.pending):len(a.pending)]
}

// sent drops the first n pending entries, which a call has delivered.
func (a *agent) sent(n int) {
	if n == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pending = a.pending[:copy(a.pending, a.pending[n:])]
}

// applyReleases drops the listed objects from agent a: its own objects,
// named by the id the host's ref carries, and its lazy copies of other
// agents' objects. Every trace goes — the table entry, the region, the
// checkpoint, and the remap, canon and deref entries — so a restart cannot
// bring the object back. An entry naming an object a no longer holds is
// skipped, which makes a re-delivered list harmless.
func (rt *Runtime) applyReleases(a *agent, list []framework.Released) {
	if len(list) == 0 {
		return
	}
	ctx := a.context()
	pid := uint32(ctx.P.PID())
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, k := range list {
		if k.PID == pid {
			id := a.resolveLocked(k.ID)
			for old, cur := range a.remap {
				if cur == id {
					delete(a.remap, old)
				}
			}
			a.dropLocked(ctx.Table, id)
			continue
		}
		for dk, id := range a.deref {
			if dk.pid == k.PID && dk.id == k.ID {
				delete(a.deref, dk)
				a.dropLocked(ctx.Table, id)
			}
		}
	}
}

// dropLocked removes one object from the agent's table, space and
// checkpoints. Called with a.mu held.
func (a *agent) dropLocked(t *object.Table, id uint64) {
	delete(a.checkpoints, id)
	delete(a.canon, id)
	o, ok := t.Get(id)
	if !ok {
		return
	}
	t.Delete(id)
	_ = o.Space().Free(o.Region())
}
