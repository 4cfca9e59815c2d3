// Package baseline implements the five isolation techniques FreePart is
// compared against (§3.1, Tables 1, 9, 10):
//
//  1. Code-based API isolation — host code partitioned; vulnerable APIs
//     isolated but critical data co-resident with them.
//  2. Code-based API & data isolation — additionally moves each critical
//     variable into its own process; every access becomes an IPC.
//  3. Library-based isolation for the entire library — two processes,
//     every API call crosses, data shared via shared memory.
//  4. Library-based isolation for individual APIs — one process per API,
//     full argument data transferred on every call.
//  5. Memory-based isolation — single process, critical data read-only.
//
// Every technique is a real executor over the simulated substrate: APIs
// execute in their assigned process's address space with accounted IPCs
// and data transfers, so both the performance numbers (Table 9) and the
// attack outcomes (Table 1) emerge from the mechanism rather than from
// hardcoded verdicts.
package baseline

import (
	"fmt"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/object"
)

// Kind enumerates the comparison techniques.
type Kind int

// Techniques, in Table 1 row order.
const (
	CodeAPI Kind = iota
	CodeAPIData
	LibraryEntire
	LibraryPerAPI
	MemoryBased
)

// String names the technique as Table 1 does.
func (k Kind) String() string {
	switch k {
	case CodeAPI:
		return "Code-based API"
	case CodeAPIData:
		return "Code-based API & Data"
	case LibraryEntire:
		return "Library-based Entire Library"
	case LibraryPerAPI:
		return "Library-based Individual APIs"
	case MemoryBased:
		return "Memory-based"
	default:
		return fmt.Sprintf("technique(%d)", int(k))
	}
}

// System is a baseline isolation deployment: processes, the API→process
// map, critical-data placement, and accounting. It implements
// core.Caller so the evaluation apps run on it unchanged.
type System struct {
	Kind    Kind
	K       *kernel.Kernel
	Reg     *framework.Registry
	Metrics *metrics.Counters

	host    *kernel.Process
	hostCtx *framework.Ctx
	procs   []*kernel.Process
	ctxs    []*framework.Ctx
	// homeOf maps API name → index into procs; -1 means the host process.
	homeOf map[string]int
	// sharedData marks techniques where object payloads do not travel on
	// cross-process calls (shared memory, Fig. 2-(c)).
	sharedData bool
	// criticals tracks named critical variables and their placement.
	criticals map[string]critical
	// codeOf places each API's code region (for rewrite attacks).
	codeOf map[string]codeLoc
	// owners maps global handle ids to (context, table id).
	owners   map[uint64]ownerRef
	globalID uint64
}

// nextGlobal mints a fresh global handle id.
func (s *System) nextGlobal() uint64 {
	s.globalID++
	return s.globalID
}

type critical struct {
	proc   *kernel.Process
	region mem.Region
}

type codeLoc struct {
	proc   *kernel.Process
	region mem.Region
}

// Host returns the host program's process.
func (s *System) Host() *kernel.Process { return s.host }

// HostSpace exposes the host space (used by apps.hostSpaceOf).
func (s *System) HostSpace() *mem.AddressSpace { return s.host.Space() }

// HostContext exposes the host execution context (used by apps.Env).
func (s *System) HostContext() *framework.Ctx { return s.hostCtx }

// Processes returns every process (host first).
func (s *System) Processes() []*kernel.Process {
	return append([]*kernel.Process{s.host}, s.procs...)
}

// HomeOf returns the process executing the given API.
func (s *System) HomeOf(api string) *kernel.Process {
	if i, ok := s.homeOf[api]; ok && i >= 0 {
		return s.procs[i]
	}
	return s.host
}

// ctxOf returns the execution context of the API's home process.
func (s *System) ctxOf(api string) *framework.Ctx {
	if i, ok := s.homeOf[api]; ok && i >= 0 {
		return s.ctxs[i]
	}
	return s.hostCtx
}

// InstallExploitHandler attaches the exploit handler to every context.
func (s *System) InstallExploitHandler(h framework.ExploitFunc) {
	s.hostCtx.OnExploit = h
	for _, c := range s.ctxs {
		c.OnExploit = h
	}
}

// PlaceCritical allocates a named critical variable in the process chosen
// by the technique's data policy and fills it with data.
func (s *System) PlaceCritical(name string, data []byte, proc *kernel.Process) (mem.Region, error) {
	r, err := proc.Space().Alloc(len(data))
	if err != nil {
		return mem.Region{}, err
	}
	if err := proc.Space().Store(r.Base, data); err != nil {
		return mem.Region{}, err
	}
	s.criticals[name] = critical{proc: proc, region: r}
	if s.Kind == MemoryBased {
		// Memory-based isolation: seal critical data after initialization.
		if _, err := proc.Space().ProtectRegion(r, mem.PermRead); err != nil {
			return mem.Region{}, err
		}
	}
	return r, nil
}

// Critical returns a critical variable's placement.
func (s *System) Critical(name string) (*kernel.Process, mem.Region, bool) {
	c, ok := s.criticals[name]
	if !ok {
		return nil, mem.Region{}, false
	}
	return c.proc, c.region, true
}

// ReadCritical reads a critical variable from the perspective of the code
// that consumes it. Only dedicated data-isolation (Fig. 2-(b)) pays an IPC
// per access: the code-based API technique co-locates the variable with
// the code partition that reads it (which is exactly why its co-residency
// with imread is exploitable), and the other techniques keep data in the
// host.
func (s *System) ReadCritical(name string, off, n int) ([]byte, error) {
	c, ok := s.criticals[name]
	if !ok {
		return nil, fmt.Errorf("baseline: unknown critical %q", name)
	}
	if s.Kind == CodeAPIData && c.proc != s.host {
		s.Metrics.Update(func(m *metrics.Snapshot) {
			m.IPCCalls++
			m.BytesMoved += uint64(max(n, 0))
		})
		s.K.Clock.Advance(s.K.Cost.IPCRoundTrip + s.K.Cost.CopyCost(n))
	}
	return c.proc.Space().Load(c.region.Base+mem.Addr(off), n)
}

// CodeRegion returns the API's code placement (attack target).
func (s *System) CodeRegion(api string) (*kernel.Process, mem.Region, bool) {
	c, ok := s.codeOf[api]
	if !ok {
		return nil, mem.Region{}, false
	}
	return c.proc, c.region, true
}

// APIsPerProcess returns the number of APIs homed in each process, host
// first (Table 10's granularity row).
func (s *System) APIsPerProcess() []int {
	counts := make([]int, len(s.procs)+1)
	for _, idx := range s.homeOf {
		counts[idx+1]++
	}
	return counts
}

// allocCode installs a one-page r-x code region for an API in its home
// process.
func (s *System) allocCode(api string) error {
	proc := s.HomeOf(api)
	r, err := proc.Space().Alloc(mem.PageSize)
	if err != nil {
		return err
	}
	if _, err := proc.Space().ProtectRegion(r, mem.PermRead|mem.PermExec); err != nil {
		return err
	}
	s.codeOf[api] = codeLoc{proc: proc, region: r}
	return nil
}

// Call implements core.Caller: run the API in its home process,
// accounting IPC and data movement per the technique's policy.
func (s *System) Call(apiName string, args ...framework.Value) ([]core.Handle, []framework.Value, error) {
	api, ok := s.Reg.Get(apiName)
	if !ok {
		return nil, nil, fmt.Errorf("baseline: unknown API %s", apiName)
	}
	s.Metrics.Update(func(m *metrics.Snapshot) { m.APICalls++ })
	ctx := s.ctxOf(apiName)
	crossing := ctx != s.hostCtx

	// Translate argument handles: objects living elsewhere are copied in
	// (full payload) unless the technique shares memory.
	resolved := make([]framework.Value, len(args))
	inBytes := 0
	for i, v := range args {
		if v.Kind != framework.ValObj {
			resolved[i] = v
			continue
		}
		ref, o, err := s.findRef(v.Obj)
		if err != nil {
			return nil, nil, err
		}
		if ref.ctx == ctx {
			resolved[i] = framework.Obj(ref.id)
			continue
		}
		no, err := object.CopyInto(ctx.P.Space(), object.Ref{Kind: o.Kind(), Header: o.Header()}, o)
		if err != nil {
			return nil, nil, err
		}
		if !s.sharedData {
			inBytes += no.Region().Size
		}
		resolved[i] = framework.Obj(s.putShadow(ctx, no))
	}
	if crossing {
		s.Metrics.Update(func(m *metrics.Snapshot) {
			m.IPCCalls++
			m.BytesMoved += uint64(inBytes)
		})
		s.K.Clock.Advance(s.K.Cost.IPCRoundTrip + s.K.Cost.CopyCost(inBytes))
	}

	results, err := api.Exec(ctx, resolved)
	if err != nil {
		return nil, nil, err
	}

	// Returned objects: under data sharing they stay put; otherwise the
	// payload is accounted as copied back to the caller.
	var handles []core.Handle
	var plain []framework.Value
	outBytes := 0
	for _, v := range results {
		if v.Kind != framework.ValObj {
			plain = append(plain, v)
			continue
		}
		o, _ := ctx.Table.Get(v.Obj)
		size := 0
		if o != nil {
			size = o.Region().Size
		}
		if crossing && !s.sharedData {
			outBytes += size
			s.Metrics.Update(func(m *metrics.Snapshot) {
				m.EagerCopies++
				m.BytesMoved += uint64(size)
			})
		}
		handles = append(handles, s.handleFor(ctx, v.Obj))
	}
	if crossing && outBytes > 0 {
		s.K.Clock.Advance(s.K.Cost.CopyCost(outBytes))
	}
	return handles, plain, nil
}

// handleFor wraps an object id with its owning context. Each context's
// table yields ids unique only within its process, so a handle needs
// (ctx, id); the executor interface carries only an id, so the system
// keeps a side map from global ids to (ctx, id).
func (s *System) handleFor(ctx *framework.Ctx, id uint64) core.Handle {
	gid := s.nextGlobal()
	s.owners[gid] = ownerRef{ctx: ctx, id: id}
	return core.BaselineHandle(gid)
}

// findRef resolves a global handle id to its owner and object.
func (s *System) findRef(gid uint64) (ownerRef, object.Object, error) {
	ref, ok := s.owners[gid]
	if !ok {
		return ownerRef{}, nil, fmt.Errorf("baseline: dangling handle %d", gid)
	}
	o, ok := ref.ctx.Table.Get(ref.id)
	if !ok {
		return ownerRef{}, nil, fmt.Errorf("baseline: dangling object %d", ref.id)
	}
	return ref, o, nil
}

// putShadow registers a rebuilt object and returns its local id.
func (s *System) putShadow(ctx *framework.Ctx, o object.Object) uint64 {
	return ctx.Table.Put(o)
}

type ownerRef struct {
	ctx *framework.Ctx
	id  uint64
}

// Fetch implements core.Caller.
func (s *System) Fetch(h core.Handle) ([]byte, error) {
	gid := core.BaselineHandleID(h)
	ref, o, err := s.findRef(gid)
	if err != nil {
		return nil, err
	}
	if ref.ctx != s.hostCtx && !s.sharedData {
		s.Metrics.Update(func(m *metrics.Snapshot) {
			m.IPCCalls++
			m.BytesMoved += uint64(o.Region().Size)
		})
		s.K.Clock.Advance(s.K.Cost.IPCRoundTrip + s.K.Cost.CopyCost(o.Region().Size))
	}
	return object.PayloadBytes(o)
}
