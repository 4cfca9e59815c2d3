package core

import (
	"fmt"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
)

// ThreadGroup implements §6's multi-threading model: a multi-threaded host
// program gets one private set of four agent processes per thread, so
// concurrent framework calls never race on an agent's object table or
// pipeline state. All threads share the host process (threads share an
// address space) and the kernel.
type ThreadGroup struct {
	K       *kernel.Kernel
	Host    *kernel.Process
	threads []*Runtime
}

// NewThreadGroup spawns n per-thread runtimes. Each runtime has its own
// agents, metrics, and framework-state machine; they share the host
// process and its address space (host-side critical data is visible to —
// and protected for — every thread).
func NewThreadGroup(k *kernel.Kernel, reg *framework.Registry, cat *analysis.Categorization, cfg Config, n int) (*ThreadGroup, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: thread group needs n > 0")
	}
	g := &ThreadGroup{K: k}
	for i := 0; i < n; i++ {
		rt, err := New(k, reg, cat, cfg)
		if err != nil {
			g.Close()
			return nil, err
		}
		if i == 0 {
			g.Host = rt.Host
		} else {
			// Later threads adopt thread 0's host process: all threads
			// live in the host program's single address space.
			rt.adoptHost(g.Host, g.threads[0].hostCtx)
		}
		g.threads = append(g.threads, rt)
	}
	return g, nil
}

// adoptHost rebinds the runtime's host side to a shared process/context,
// releasing its own placeholder host.
func (rt *Runtime) adoptHost(host *kernel.Process, hostCtx *framework.Ctx) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	own := rt.Host
	delete(rt.endpoints, uint32(own.PID()))
	rt.K.Exit(own)
	rt.Host = host
	rt.hostCtx = hostCtx
	rt.endpoints[uint32(host.PID())] = nil
}

// Thread returns the i-th thread's runtime.
func (g *ThreadGroup) Thread(i int) *Runtime { return g.threads[i] }

// Len returns the number of threads.
func (g *ThreadGroup) Len() int { return len(g.threads) }

// Close shuts down every thread's agents.
func (g *ThreadGroup) Close() {
	for _, rt := range g.threads {
		rt.Close()
	}
}
