package core

import "sort"

// Test-only accessors: no binary reads these.

// Size returns the object's payload size in bytes.
func (h Handle) Size() int { return h.size }

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
// has demoted to in-host execution, sorted for deterministic logs.
func (rt *Runtime) DegradedPartitions() []string {
	rt.mu.Lock()
	agents := make([]*agent, 0, len(rt.agents))
	for _, a := range rt.agents {
		agents = append(agents, a)
	}
	rt.mu.Unlock()
	var out []string
	for _, a := range agents {
		if a.isDegraded() {
			out = append(out, a.name)
		}
	}
	sort.Strings(out)
	return out
}
