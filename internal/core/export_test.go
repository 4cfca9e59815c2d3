package core

import (
	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
)

// Test-only accessors: no binary reads these.

// Materialized reports whether the object lives in the host space.
func (h Handle) Materialized() bool { return h.materialized }

// OwnerPID returns the owning agent's process id (0 when materialized).
func (h Handle) OwnerPID() uint32 {
	if h.materialized {
		return 0
	}
	return h.ref.PID
}

// EndpointCount returns how many endpoints (host + agents) the runtime
// tracks — inspection for leak tests.
func (rt *Runtime) EndpointCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.endpoints)
}

// DegradedPartitions returns the names of partitions the circuit breaker
// has demoted to in-host execution, in partition order.
func (rt *Runtime) DegradedPartitions() []string {
	var out []string
	for _, a := range rt.byID {
		if a.isDegraded() {
			out = append(out, a.name)
		}
	}
	return out
}

// AgentPolicy is one agent's installed syscall policy, as tests read it.
type AgentPolicy struct {
	ID     int
	Name   string
	Tier   isolation.Tier
	Policy *analysis.AgentPolicy // nil when the agent installs none
}

// AgentPolicies returns every agent's syscall policy, in partition order.
func (rt *Runtime) AgentPolicies() []AgentPolicy {
	out := make([]AgentPolicy, 0, len(rt.byID))
	for _, a := range rt.byID {
		out = append(out, AgentPolicy{ID: a.id, Name: a.name, Tier: a.tier, Policy: a.policy})
	}
	return out
}

// DerivedPolicies returns the per-type policies the runtime's agents
// install theirs from; nil when it restricts no syscalls.
func (rt *Runtime) DerivedPolicies() map[framework.APIType]*analysis.AgentPolicy {
	return rt.policies
}
