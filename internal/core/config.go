// Package core implements the FreePart runtime (§4.3, §4.4): framework API
// interposition, agent-process partitioning and RPC, lazy data copy,
// temporal memory-permission enforcement, per-agent syscall lockdown, and
// the agent restart supervisor.
package core

import (
	"time"

	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/object"
	"freepart.dev/freepart/internal/vclock"
)

// Config selects the runtime's policies.
type Config struct {
	// LazyDataCopy enables the §4.3.2 optimization: objects move between
	// agents by reference and are copied only when dereferenced. Disabled,
	// every object payload ships through the host process (the -LDC
	// ablation of §5.2).
	LazyDataCopy bool
	// Restart enables the §4.4.2 supervisor: crashed agents are revived
	// with a fresh address space.
	Restart bool
	// CheckpointStateful periodically saves stateful-API objects so a
	// restarted agent resumes with usable state (§A.2.4).
	CheckpointStateful bool
	// EnforcePermissions enables temporal read-only protection (§4.4.3).
	EnforcePermissions bool
	// RestrictSyscalls installs per-agent seccomp policies (§4.4.1).
	RestrictSyscalls bool
	// AppAPIs limits syscall-policy derivation to the APIs the target app
	// actually uses (per-application lockdown, §4.1 study 2). Nil = all.
	AppAPIs []string
	// PartitionOf overrides agent assignment (Fig. 4 / §A.1.4 sweeps):
	// given an API, return a partition id in [0, Partitions). Nil = the
	// default four type-based partitions.
	PartitionOf func(api *framework.API) int
	// Partitions is the partition count when PartitionOf is set.
	Partitions int

	// Chaos, when set, threads the fault-injection engine into the kernel,
	// every agent connection, and every agent address space.
	Chaos *chaos.Engine
	// RetryBudget is how many times the supervisor re-issues one API call
	// (same RPC sequence number, so completed work is answered from the
	// dedup cache) after a crash, timeout, or corrupted message. 0 keeps
	// the paper's behaviour: restart the agent but surface the error.
	RetryBudget int
	// CheckpointAll extends checkpointing from stateful APIs to every
	// object argument/result, so a retried call can be replayed even when
	// its arguments lived in the agent that just lost its memory.
	CheckpointAll bool
	// BackoffBase is the virtual-time penalty of the first restart in a
	// crash loop; each consecutive restart doubles it up to BackoffCap.
	// 0 disables backoff.
	BackoffBase vclock.Duration
	// BackoffCap bounds the exponential backoff.
	BackoffCap vclock.Duration
	// BreakerThreshold trips the circuit breaker: after this many restarts
	// of one partition within BreakerWindow, the partition is degraded to
	// in-host direct execution (a recorded security downgrade). 0 disables
	// the breaker.
	BreakerThreshold int
	// BreakerWindow is the virtual-time window the breaker counts restarts
	// over; 0 means an unbounded window.
	BreakerWindow vclock.Duration

	// Isolation picks the boundary tier per API type (see
	// internal/isolation). Nil — and the equivalent isolation.Paper()
	// preset — runs every partition as a kernel process behind per-call
	// IPC, byte-identical to the pre-policy path.
	Isolation *isolation.Policy

	// OnAnomaly, when set, receives DoS resource-watchdog reports for
	// partitions that share the host's fate (domain and host tiers): an
	// invocation that killed the host process (kind "host-crash"). The
	// hook observes only — it advances no clock and mutates no runtime
	// state — so a nil hook is bit-identical to not having a watchdog.
	// Process-tier partitions are never reported: their crashes are
	// already contained by the restart supervisor.
	OnAnomaly func(t framework.APIType, api, kind, detail string)
}

// Default returns the paper's standard configuration: four type-based
// partitions with LDC, restart, checkpointing, temporal permissions, and
// syscall lockdown all on.
func Default() Config {
	return Config{
		LazyDataCopy:       true,
		Restart:            true,
		CheckpointStateful: true,
		EnforcePermissions: true,
		RestrictSyscalls:   true,
	}
}

// ConfigForIsolation returns the replay/serving configuration for one
// isolation policy. The "none" preset (every type in-host) disables every
// FreePart mechanism — it is the unprotected baseline the overhead column
// is measured against, so temporal sealing and seccomp must not quietly
// block anything. Every other preset keeps the paper's defaults, with
// seccomp derivation skipped when no partition runs as a process (MPK
// domains and in-host execution have no per-partition filter to install).
func ConfigForIsolation(pol *isolation.Policy) Config {
	if pol != nil && !pol.HasTier(isolation.TierProcess) && !pol.HasTier(isolation.TierDomain) {
		return Config{LazyDataCopy: true, Isolation: pol}
	}
	cfg := Default()
	cfg.Isolation = pol
	cfg.RestrictSyscalls = pol.HasTier(isolation.TierProcess)
	return cfg
}

// ChaosConfig returns the supervision policy used for chaos runs: the
// paper's defaults plus retry budgets with idempotent replay, checkpointing
// of every object (so replays survive argument loss), exponential crash-
// loop backoff charged to the virtual clock, and the circuit breaker.
func ChaosConfig(eng *chaos.Engine) Config {
	cfg := Default()
	cfg.Chaos = eng
	cfg.RetryBudget = 6
	cfg.CheckpointAll = true
	cfg.BackoffBase = vclock.Duration(20 * time.Microsecond)
	cfg.BackoffCap = vclock.Duration(2 * time.Millisecond)
	cfg.BreakerThreshold = 8
	cfg.BreakerWindow = vclock.Duration(200 * time.Millisecond)
	return cfg
}

// Handle is the host program's reference to a data object produced by a
// framework API. Under lazy data copy it names an object living in an
// agent process (ref); without LDC (or after Fetch) it is materialized in
// the host's own address space (local id).
type Handle struct {
	ref          object.Ref
	local        uint64
	materialized bool
}

// Value converts the handle into an API argument value.
func (h Handle) Value() framework.Value {
	if h.materialized {
		return framework.Obj(h.local)
	}
	return framework.RefVal(h.ref)
}

// Caller abstracts the protected runtime and the unprotected Direct
// runner so application pipelines (internal/apps) run unchanged on both.
// (The concurrent serving pool that schedules sessions over many runtimes
// is Executor, in executor.go.)
type Caller interface {
	// Call invokes a framework API, returning object handles and plain
	// (scalar) results.
	Call(api string, args ...framework.Value) ([]Handle, []framework.Value, error)
	// Fetch dereferences a handle's payload into the caller's hands.
	Fetch(h Handle) ([]byte, error)
}

// BaselineHandle builds a handle carrying an executor-specific opaque id —
// used by the baseline isolation techniques (internal/baseline), whose
// object ownership model differs from the FreePart runtime's.
func BaselineHandle(id uint64) Handle {
	return Handle{local: id, materialized: true}
}

// BaselineHandleID extracts the opaque id from a baseline handle.
func BaselineHandleID(h Handle) uint64 { return h.local }
