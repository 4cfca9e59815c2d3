package core

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
