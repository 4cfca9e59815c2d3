package core

import (
	"fmt"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/object"
)

// Direct runs framework APIs in the host process with no partitioning,
// isolation, or policies — the unprotected baseline every overhead number
// (Fig. 13, Table 9) is measured against, and the victim configuration in
// attack demonstrations.
type Direct struct {
	K       *kernel.Kernel
	Reg     *framework.Registry
	Proc    *kernel.Process
	Ctx     *framework.Ctx
	Metrics *metrics.Counters
}

// NewDirect builds an unprotected runner around one process.
func NewDirect(k *kernel.Kernel, reg *framework.Registry) *Direct {
	p := k.Spawn("monolith")
	return &Direct{K: k, Reg: reg, Proc: p, Ctx: framework.NewCtx(k, p), Metrics: metrics.New()}
}

// Call executes the API inline. Results stay as host-process objects, so
// the same Handle type works for app code written against either runner.
func (d *Direct) Call(apiName string, args ...framework.Value) ([]Handle, []framework.Value, error) {
	api, ok := d.Reg.Get(apiName)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown API %s", apiName)
	}
	d.Metrics.Update(func(m *metrics.Snapshot) { m.APICalls++ })
	results, err := api.Exec(d.Ctx, args)
	if err != nil {
		return nil, nil, err
	}
	return hostResults(results)
}

// Fetch reads a handle's payload from the host table.
func (d *Direct) Fetch(h Handle) ([]byte, error) {
	o, ok := d.Ctx.Table.Get(h.local)
	if !ok {
		return nil, fmt.Errorf("core: dangling handle %d", h.local)
	}
	return object.PayloadBytes(o)
}

// Release frees a handle's simulated memory and table entry. The
// simulation has no garbage collector, so long-running unprotected loops
// (benchmarks, servers) release buffers explicitly.
func (d *Direct) Release(h Handle) error {
	o, ok := d.Ctx.Table.Get(h.local)
	if !ok {
		return fmt.Errorf("core: dangling handle %d", h.local)
	}
	d.Ctx.Table.Delete(h.local)
	return d.Proc.Space().Free(o.Region())
}
