package core

import (
	"errors"
	"fmt"
	"sort"

	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/vclock"
)

// Overload-control errors sit beside the IPC failure taxonomy
// (ipc.ErrTimeout, ipc.ErrAgentCrashed, ...): they are the serving layer's
// deliberate refusals, distinguishable from crashes so clients and the
// control plane can react per class.
var (
	// ErrOverloaded is the virtual 503: the target shard's admission queue
	// was already at its configured bound when the request arrived, so the
	// request was rejected instead of stacking unbounded queue wait.
	ErrOverloaded = errors.New("core: shard overloaded, admission queue full")

	// ErrDeadlineExceeded is the deadline shed: the request spent longer in
	// the admission queue than its deadline allowed, so it was dropped at
	// dequeue without running — stale work would waste capacity the live
	// requests need.
	ErrDeadlineExceeded = errors.New("core: admission deadline exceeded before service")

	// ErrQuarantined is the defense controller's tenant-level refusal: the
	// tenant was caught attacking and its traffic is rejected at admission
	// until the quarantine is lifted (see internal/defense).
	ErrQuarantined = errors.New("core: tenant quarantined after attack sighting")

	// ErrAttackBlocked is the signature screen's refusal: the request
	// matched the signature of an exploit the defense controller has
	// already sighted, so it is rejected at the front door without ever
	// reaching a partition.
	ErrAttackBlocked = errors.New("core: request matched a known attack signature")
)

// ErrClass buckets an invocation error into the serving layer's failure
// taxonomy — the per-class rejection summaries servers print, and the
// classes operators alert on.
func ErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrQuarantined):
		return "quarantined"
	case errors.Is(err, ErrAttackBlocked):
		return "attack-blocked"
	case errors.Is(err, ipc.ErrTimeout):
		return "timeout"
	case errors.Is(err, ipc.ErrAgentCrashed):
		return "agent-crash"
	case errors.Is(err, ipc.ErrCorrupt):
		return "corrupt"
	default:
		return "app-error"
	}
}

// AdmissionGate is a pluggable per-request refusal hook consulted at
// admission, before the overload policy: given the requesting tenant and
// session, a non-nil return rejects the request with that error (the
// defense controller installs its quarantine check here, returning
// ErrQuarantined-wrapped errors). The gate must be a pure function of
// state that changes only at reconcile barriers so per-shard admission
// outcomes replay deterministically. A gated request is as pure as a
// shed one: no clock advance, no checkpoint, no chaos draw. Nil (the
// default) refuses nothing.
type AdmissionGate func(tenant, session int) error

// SetAdmissionGate installs (or, with nil, removes) the admission gate.
func (e *Executor) SetAdmissionGate(g AdmissionGate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gate = g
}

// AdmissionPolicy bounds what a shard will queue. The zero value disables
// overload control entirely: the admission path is then bit-identical to
// the unbounded serving layer, which the zero-cost guard test pins down.
type AdmissionPolicy struct {
	// QueueLimit caps how many earlier requests may still be in the system
	// (in service or queued on the virtual timeline) when a request
	// arrives; at or beyond the limit the arrival is rejected with
	// ErrOverloaded. 0 means unbounded.
	QueueLimit int
	// Deadline is the admission deadline relative to each request's arrival
	// stamp: a request still unserved when the shard clock passes
	// arrival+Deadline is dropped at dequeue with ErrDeadlineExceeded.
	// Only stamped requests carry a deadline — closed-loop invocations
	// (session inits, provisioning, legacy Do calls) have no client-side
	// arrival to anchor one, so they are exempt; in particular a session
	// init re-run after a failover is never shed as stale. 0 means no
	// deadline.
	Deadline vclock.Duration
}

// active reports whether any overload control is configured.
func (p AdmissionPolicy) active() bool { return p.QueueLimit > 0 || p.Deadline > 0 }

// SetAdmission installs the overload-control policy. Install it before
// serving; the zero policy keeps the unbounded path.
func (e *Executor) SetAdmission(p AdmissionPolicy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.admit = p
}

// maxEndsRetained bounds the per-shard completion ring backing the queue
// depth signal. Only the most recent completions can exceed a new arrival's
// stamp (service is serial, so completion times are monotone), so trimming
// the oldest half never changes a depth reading at realistic reorder skew.
const maxEndsRetained = 4096

// queuedAt returns the shard's virtual queue depth at arrival time a: how
// many previously admitted requests had not yet completed when a arrived.
// ends is monotone (serial FIFO service), so this is a binary search.
// Caller holds s.mu.
func (s *Shard) queuedAt(a vclock.Duration) int {
	i := sort.Search(len(s.ends), func(i int) bool { return s.ends[i] > a })
	return len(s.ends) - i
}

// noteEnd records one admitted request's completion stamp into the depth
// ring. Caller holds s.mu.
func (s *Shard) noteEnd(end vclock.Duration) {
	s.ends = append(s.ends, end)
	if len(s.ends) > maxEndsRetained {
		keep := s.ends[len(s.ends)-maxEndsRetained/2:]
		s.ends = append(make([]vclock.Duration, 0, maxEndsRetained), keep...)
	}
}

// shedLocked applies the admission policy to one arrival on sh: queue-bound
// rejection first (measured at the arrival stamp), then the deadline check
// (measured at dequeue, i.e. the shard clock now, and only for stamped
// requests — closed-loop arrivals carry no deadline). A shed request runs
// no work, advances no clock, and writes no checkpoint — it only lands in
// the event log and the overload counters. Returns (true, typed error) when
// the request was shed. Caller holds sh.mu.
func (e *Executor) shedLocked(sh *Shard, s *Session, arrival, now vclock.Duration, pol AdmissionPolicy, stamped bool) (bool, error) {
	if pol.QueueLimit > 0 {
		if depth := sh.queuedAt(arrival); depth >= pol.QueueLimit {
			e.recordShed(sh, s, "reject", arrival,
				fmt.Sprintf("tenant %d session %d depth %d limit %d", s.Tenant, s.ID, depth, pol.QueueLimit))
			return true, fmt.Errorf("core: shard %d queue depth %d at limit %d: %w", sh.ID, depth, pol.QueueLimit, ErrOverloaded)
		}
	}
	if stamped && pol.Deadline > 0 && now > arrival+pol.Deadline {
		late := now - (arrival + pol.Deadline)
		e.recordShed(sh, s, "shed", now,
			fmt.Sprintf("tenant %d session %d late %v", s.Tenant, s.ID, late))
		return true, fmt.Errorf("core: shard %d dequeued request %v past its deadline: %w", sh.ID, late, ErrDeadlineExceeded)
	}
	return false, nil
}

// recordShed logs one admission refusal — a reject, a deadline shed or a
// quarantine — and folds it into the per-slot and per-tenant load signals
// inside the same e.mu critical section as the event and its counter.
// Stamped at `at`: the arrival for rejects and quarantines, the dequeue
// clock for deadline sheds — both pure functions of the shard's admitted
// work, so per-shard event subsequences replay byte-equal.
func (e *Executor) recordShed(sh *Shard, s *Session, kind string, at vclock.Duration, detail string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recordLocked(sh, at, kind, detail)
	l := e.loads[sh.ID]
	if l == nil {
		l = &shardLoad{}
		e.loads[sh.ID] = l
	}
	t := e.tenantLoadLocked(s.Tenant, s.Weight)
	// A quarantine is deliberately refused traffic: it stays out of the
	// rejected/shed load signals, so the control plane never grows the
	// pool to serve a quarantined attacker.
	switch kind {
	case "reject":
		l.rejected++
		t.rejected++
	case "shed":
		l.shed++
		t.shed++
	}
}

// tenantLoad accumulates per-tenant admission signals, guarded by the
// executor's mu.
type tenantLoad struct {
	weight   int
	waitSum  vclock.Duration
	waits    uint64
	served   uint64
	rejected uint64
	shed     uint64
}

// tenantLoadLocked returns (creating if needed) the load cell for a tenant.
// Caller holds e.mu.
func (e *Executor) tenantLoadLocked(tenant, weight int) *tenantLoad {
	t := e.tenants[tenant]
	if t == nil {
		t = &tenantLoad{weight: 1}
		e.tenants[tenant] = t
	}
	if weight > t.weight {
		t.weight = weight
	}
	return t
}

// TenantLoad is the per-tenant slice of the control-plane signal: admission
// waits, served work, and shed work, accumulated across the whole pool.
// The controller diffs successive readings for per-window means, exactly as
// it does with ShardLoad.
type TenantLoad struct {
	// Tenant identifies the tenant; Weight is its fair-queueing weight (the
	// largest weight any of its sessions declared).
	Tenant int
	Weight int
	// WaitSum and Waits accumulate admission-queue delay over admitted
	// requests.
	WaitSum vclock.Duration
	Waits   uint64
	// Served counts invocations completed without error; Rejected and Shed
	// count queue-bound rejections and deadline drops.
	Served   uint64
	Rejected uint64
	Shed     uint64
}

// TenantLoads snapshots per-tenant signals, ascending by tenant id.
func (e *Executor) TenantLoads() []TenantLoad {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]int, 0, len(e.tenants))
	for id := range e.tenants {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]TenantLoad, len(ids))
	for i, id := range ids {
		t := e.tenants[id]
		out[i] = TenantLoad{
			Tenant: id, Weight: t.weight,
			WaitSum: t.waitSum, Waits: t.waits,
			Served: t.served, Rejected: t.rejected, Shed: t.shed,
		}
	}
	return out
}

// TenantOf returns the tenant id unfinished session id was opened under (0
// for sessions opened through the tenantless Session path, and for a
// finished or unknown id).
func (e *Executor) TenantOf(session int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.sessions[session]; s != nil {
		return s.Tenant
	}
	return 0
}
