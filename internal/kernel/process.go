package kernel

import (
	"fmt"
	"sync"

	"freepart.dev/freepart/internal/mem"
)

// PID identifies a simulated process.
type PID uint32

// ProcState is a process lifecycle state.
type ProcState uint8

// Process lifecycle states.
const (
	StateRunning ProcState = iota
	StateCrashed           // faulted (segfault / DoS) — restartable
	StateKilled            // terminated by its seccomp filter
	StateExited            // clean exit
)

// String names the state.
func (s ProcState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateCrashed:
		return "crashed"
	case StateKilled:
		return "killed"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Denial records one syscall blocked by the process's filter.
type Denial struct {
	Call  Sysno
	Label string
}

// Process is a simulated OS process: an isolated address space, a seccomp
// filter, and syscall accounting.
type Process struct {
	pid  PID
	name string

	mu       sync.Mutex
	space    *mem.AddressSpace
	filter   *Filter
	state    ProcState
	reason   string
	restarts int
	sysCount map[Sysno]uint64
	denials  []Denial
}

// PID returns the process id.
func (p *Process) PID() PID { return p.pid }

// Name returns the process name (e.g. "host", "agent:loading").
func (p *Process) Name() string { return p.name }

// Space returns the process's current address space. After a restart this
// is a fresh space; holders of stale spaces cannot corrupt the new one.
func (p *Process) Space() *mem.AddressSpace {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.space
}

// Filter returns the process's seccomp filter.
func (p *Process) Filter() *Filter {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.filter
}

// State returns the lifecycle state.
func (p *Process) State() ProcState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Alive reports whether the process can execute.
func (p *Process) Alive() bool { return p.State() == StateRunning }

// ExitReason describes why a non-running process stopped.
func (p *Process) ExitReason() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reason
}

// Restarts reports how many times the process has been restarted.
func (p *Process) Restarts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restarts
}

// SyscallCounts returns a copy of the per-syscall invocation counts.
func (p *Process) SyscallCounts() map[Sysno]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Sysno]uint64, len(p.sysCount))
	for k, v := range p.sysCount {
		out[k] = v
	}
	return out
}

// Denials returns a copy of the recorded filter denials.
func (p *Process) Denials() []Denial {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Denial, len(p.denials))
	copy(out, p.denials)
	return out
}

// String formats the process for logs.
func (p *Process) String() string {
	return fmt.Sprintf("proc %d (%s, %s)", p.pid, p.name, p.State())
}
