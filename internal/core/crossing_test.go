package core_test

import (
	"testing"

	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// TestCrossingCharges pins what each way an object crosses a partition
// boundary counts and costs: one row per crossing, each on a fresh
// runtime, holding the counter snapshot and the virtual clock after the
// call that makes the crossing. Every row reads an 8×8 one-channel image
// (64 bytes), so each copy moves 64 bytes.
func TestCrossingCharges(t *testing.T) {
	noLDC := func(cfg core.Config) core.Config {
		cfg.LazyDataCopy = false
		return cfg
	}
	// imread returns the handle of the loading partition's image.
	imread := func(t *testing.T, rt *core.Runtime) core.Handle {
		t.Helper()
		h, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
		if err != nil {
			t.Fatal(err)
		}
		return h[0]
	}
	// hostObject puts a 64-byte image in the host's own table.
	hostObject := func(t *testing.T, rt *core.Runtime) framework.Value {
		t.Helper()
		id, _, err := rt.HostCtx().NewMatFromBytes(8, 8, 1, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		return framework.Obj(id)
	}
	call := func(t *testing.T, rt *core.Runtime, api string, args ...framework.Value) {
		t.Helper()
		if _, _, err := rt.Call(api, args...); err != nil {
			t.Fatalf("%s: %v", api, err)
		}
	}
	blur := func(t *testing.T, rt *core.Runtime) {
		call(t, rt, "cv.GaussianBlur", imread(t, rt).Value())
	}
	fetch := func(t *testing.T, rt *core.Runtime) {
		if _, err := rt.Fetch(imread(t, rt)); err != nil {
			t.Fatal(err)
		}
	}
	hostEnforced := core.ConfigForIsolation(isolation.None())
	hostEnforced.EnforcePermissions = true
	processingInHost := core.ConfigForIsolation(isolation.Paper().WithTier(framework.TypeProcessing, isolation.TierHost))

	rows := []struct {
		name string
		cfg  func() core.Config
		run  func(t *testing.T, rt *core.Runtime)
		snap metrics.Snapshot
		took vclock.Duration
	}{
		{
			// A loading agent's ref dereferenced by the processing agent.
			name: "process/lazy ref",
			cfg:  core.Default,
			run:  blur,
			snap: metrics.Snapshot{IPCCalls: 2, BytesMoved: 64, LazyCopies: 1, PermFlips: 1, APICalls: 2},
			took: 12186,
		},
		{
			// A host object shipped to an agent: counted at the host,
			// charged as wire bytes.
			name: "process/eager host object",
			cfg:  core.Default,
			run: func(t *testing.T, rt *core.Runtime) {
				call(t, rt, "cv.GaussianBlur", hostObject(t, rt))
			},
			snap: metrics.Snapshot{IPCCalls: 1, BytesMoved: 128, EagerCopies: 1, APICalls: 1},
			took: 6143,
		},
		{
			name: "process/result without LDC",
			cfg:  func() core.Config { return noLDC(core.Default()) },
			run:  func(t *testing.T, rt *core.Runtime) { imread(t, rt) },
			snap: metrics.Snapshot{IPCCalls: 1, BytesMoved: 64, EagerCopies: 1, APICalls: 1},
			took: 5499,
		},
		{
			// A loading agent's ref dereferenced by a visualizing domain.
			name: "domain/process ref",
			cfg:  func() core.Config { return core.ConfigForIsolation(isolation.Tiered()) },
			run: func(t *testing.T, rt *core.Runtime) {
				call(t, rt, "cv.imshow", framework.Str("w"), imread(t, rt).Value())
			},
			snap: metrics.Snapshot{IPCCalls: 1, BytesMoved: 64, LazyCopies: 1, PermFlips: 1, APICalls: 2, DomainSwitches: 2},
			took: 7895,
		},
		{
			// One domain's ref read by another: a page grant.
			name: "domain/domain ref",
			cfg:  func() core.Config { return core.ConfigForIsolation(isolation.ERIM()) },
			run:  blur,
			snap: metrics.Snapshot{PermFlips: 1, APICalls: 2, DomainSwitches: 4},
			took: 7700,
		},
		{
			name: "domain/host object",
			cfg:  func() core.Config { return core.ConfigForIsolation(isolation.ERIM()) },
			run: func(t *testing.T, rt *core.Runtime) {
				call(t, rt, "cv.GaussianBlur", hostObject(t, rt))
			},
			snap: metrics.Snapshot{BytesMoved: 64, APICalls: 1, DomainSwitches: 2, DomainCopies: 1},
			took: 3956,
		},
		{
			name: "domain/result without LDC",
			cfg:  func() core.Config { return noLDC(core.ConfigForIsolation(isolation.ERIM())) },
			run:  func(t *testing.T, rt *core.Runtime) { imread(t, rt) },
			snap: metrics.Snapshot{BytesMoved: 64, APICalls: 1, DomainSwitches: 2, DomainCopies: 1},
			took: 2976,
		},
		{
			// A loading agent's ref run on by processing in the host.
			name: "host/process ref",
			cfg:  func() core.Config { return processingInHost },
			run:  blur,
			snap: metrics.Snapshot{IPCCalls: 1, BytesMoved: 64, EagerCopies: 1, PermFlips: 1, APICalls: 2},
			took: 10083,
		},
		{
			// cv.rectangle draws in place on imread's result, which the
			// loading→processing transition sealed: it gets a copy.
			name: "host/sealed host object",
			cfg:  func() core.Config { return hostEnforced },
			run: func(t *testing.T, rt *core.Runtime) {
				call(t, rt, "cv.rectangle", imread(t, rt).Value())
			},
			snap: metrics.Snapshot{BytesMoved: 64, PermFlips: 1, APICalls: 2, DomainCopies: 1},
			took: 4732,
		},
		{
			name: "fetch/process object",
			cfg:  core.Default,
			run:  fetch,
			snap: metrics.Snapshot{IPCCalls: 1, BytesMoved: 64, LazyCopies: 1, APICalls: 1},
			took: 5339,
		},
		{
			name: "fetch/domain object",
			cfg:  func() core.Config { return core.ConfigForIsolation(isolation.ERIM()) },
			run:  fetch,
			snap: metrics.Snapshot{BytesMoved: 64, APICalls: 1, DomainSwitches: 2, DomainCopies: 1},
			took: 2976,
		},
		{
			// Every write into the processing agent's space faults, so it
			// crash-loops until the breaker runs it in the host, which
			// copies the loading agent's ref in.
			name: "degraded/process ref",
			cfg: func() core.Config {
				cfg := core.ChaosConfig(chaos.New(chaos.Plan{Seed: 1, TargetPrefix: "agent:Data Processing", Mem: chaos.MemPlan{FaultProb: 1}}))
				cfg.BreakerThreshold = 3
				return cfg
			},
			run: blur,
			snap: metrics.Snapshot{
				IPCCalls: 4, BytesMoved: 64, EagerCopies: 1, PermFlips: 1, Restarts: 3, APICalls: 2, Checkpoints: 1,
				Retries: 2, Degraded: 1, DegradedCalls: 1, InjectedFaults: 4,
			},
			took: 900147,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			k, rt := setup(t, row.cfg())
			writeImage(k, "/in.img", 8, 8)
			start := k.Clock.Now()
			row.run(t, rt)
			snap, took := rt.Metrics.Snapshot(), k.Clock.Now()-start
			if snap != row.snap {
				t.Errorf("counters:\n got %+v\nwant %+v", snap, row.snap)
			}
			if took != row.took {
				t.Errorf("the calls took %d of virtual time, want %d", took, row.took)
			}
		})
	}
}
