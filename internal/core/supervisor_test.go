package core_test

import (
	"bytes"
	"sync"
	"testing"

	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
)

// cleanPipeline runs the reference imread→blur→erode pipeline on a fresh
// direct runner and returns the final payload, the fault-free baseline the
// chaos runs must match.
func cleanPipeline(t *testing.T) []byte {
	t.Helper()
	k := kernel.New()
	writeImage(k, "/in.img", 8, 8)
	d := core.NewDirect(k, all.Registry())
	return runPipeline(t, d)
}

func runPipeline(t *testing.T, ex core.Caller) []byte {
	t.Helper()
	imgs, _, err := ex.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatalf("imread: %v", err)
	}
	b, _, err := ex.Call("cv.GaussianBlur", imgs[0].Value())
	if err != nil {
		t.Fatalf("blur: %v", err)
	}
	e, _, err := ex.Call("cv.erode", b[0].Value())
	if err != nil {
		t.Fatalf("erode: %v", err)
	}
	out, err := ex.Fetch(e[0])
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	return out
}

// TestCircuitBreakerDegradesToInHost drives one partition into a permanent
// crash loop (every targeted syscall kills it) and checks the supervision
// policy's last resort: after BreakerThreshold restarts inside the window
// the partition is demoted to in-host execution, the pipeline completes,
// and the security downgrade is visible in the metrics.
func TestCircuitBreakerDegradesToInHost(t *testing.T) {
	eng := chaos.New(chaos.Plan{Seed: 1, Kernel: chaos.KernelPlan{CrashEveryN: 1}})
	cfg := core.ChaosConfig(eng)
	cfg.BreakerThreshold = 3
	k, rt := setup(t, cfg)
	writeImage(k, "/in.img", 8, 8)

	imgs, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatalf("imread should complete degraded, got %v", err)
	}
	if !rt.Host.Alive() {
		t.Fatal("host must survive the crash loop")
	}
	snap := rt.Metrics.Snapshot()
	if snap.Restarts < 3 {
		t.Fatalf("restarts = %d, want >= breaker threshold 3", snap.Restarts)
	}
	if snap.Degraded < 1 {
		t.Fatalf("degraded = %d, want >= 1", snap.Degraded)
	}
	if snap.DegradedCalls < 1 {
		t.Fatalf("degradedCalls = %d, want >= 1", snap.DegradedCalls)
	}
	if len(rt.DegradedPartitions()) == 0 {
		t.Fatal("no partition reported degraded")
	}
	// The degradation is on the injection log for replay.
	found := false
	for _, ev := range eng.Events() {
		if ev.Kind == "supervisor/degrade" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no supervisor/degrade event in log:\n%s", eng.Events().String())
	}
	// The demoted partition keeps serving — in the host, correctly.
	out, err := rt.Fetch(imgs[0])
	if err != nil {
		t.Fatalf("fetch from degraded result: %v", err)
	}
	if len(out) != 64 {
		t.Fatalf("degraded imread payload = %d bytes, want 64", len(out))
	}
	if _, _, err := rt.Call("cv.imread", framework.Str("/in.img")); err != nil {
		t.Fatalf("second degraded call: %v", err)
	}
}

// TestDegradedCallWritesSealedCopy: the breaker's degraded path runs a
// partition's APIs in the host, where an earlier state's results live
// sealed read-only. An in-place API (cv.rectangle draws on its canvas)
// must draw on a copy, as the process tier's agent draws on its lazy copy,
// leaving the sealed original unchanged and producing what an unprotected
// run produces.
func TestDegradedCallWritesSealedCopy(t *testing.T) {
	// Every write into an agent space faults, so each partition crash-loops
	// on its first call and the breaker demotes it.
	eng := chaos.New(chaos.Plan{Seed: 1, Mem: chaos.MemPlan{FaultProb: 1}})
	cfg := core.ChaosConfig(eng)
	cfg.BreakerThreshold = 3
	k, rt := setup(t, cfg)
	writeImage(k, "/in.img", 8, 8)
	imgs, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatalf("imread: %v", err)
	}
	orig, err := rt.Fetch(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	boxed, _, err := rt.Call("cv.rectangle", imgs[0].Value())
	if err != nil {
		t.Fatalf("degraded rectangle on a sealed frame: %v", err)
	}
	if len(rt.DegradedPartitions()) < 2 {
		t.Fatalf("degraded partitions %v, want loading and processing", rt.DegradedPartitions())
	}
	drawn, err := rt.Fetch(boxed[0])
	if err != nil {
		t.Fatal(err)
	}
	if after, err := rt.Fetch(imgs[0]); err != nil || !bytes.Equal(after, orig) {
		t.Fatalf("sealed original changed (err %v)", err)
	}

	dk := kernel.New()
	writeImage(dk, "/in.img", 8, 8)
	d := core.NewDirect(dk, all.Registry())
	dimgs, _, err := d.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatal(err)
	}
	dboxed, _, err := d.Call("cv.rectangle", dimgs[0].Value())
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Fetch(dboxed[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(drawn, want) {
		t.Fatal("degraded rectangle differs from the unprotected run")
	}
}

// TestTransientSyscallFaultsInvisible saturates the transient-fault path
// (every eligible I/O syscall fails EINTR-style up to the cap) and checks
// the kernel retry makes them invisible: no crashes, no restarts, correct
// output — only virtual time is lost.
func TestTransientSyscallFaultsInvisible(t *testing.T) {
	baseline := cleanPipeline(t)
	eng := chaos.New(chaos.Plan{
		Seed:   1,
		Kernel: chaos.KernelPlan{TransientProb: 1, MaxTransient: 2},
	})
	k, rt := setup(t, core.ChaosConfig(eng))
	writeImage(k, "/in.img", 8, 8)
	out := runPipeline(t, rt)
	if !bytes.Equal(out, baseline) {
		t.Fatal("output diverged under transient faults")
	}
	if eng.Injected() == 0 {
		t.Fatal("no transients fired")
	}
	if snap := rt.Metrics.Snapshot(); snap.Restarts != 0 {
		t.Fatalf("transient faults caused %d restarts, want 0", snap.Restarts)
	}
}

// TestIPCFaultsRetriedWithinBudget runs the pipeline under message-level
// chaos only — drops, duplication, corruption — and checks the retry path:
// the pipeline completes with baseline-identical output and the retries are
// counted.
func TestIPCFaultsRetriedWithinBudget(t *testing.T) {
	baseline := cleanPipeline(t)
	eng := chaos.New(chaos.Plan{
		Seed: 11,
		IPC:  chaos.IPCPlan{DropProb: 0.3, DupProb: 0.3, CorruptProb: 0.3},
	})
	k, rt := setup(t, core.ChaosConfig(eng))
	writeImage(k, "/in.img", 8, 8)
	out := runPipeline(t, rt)
	if !bytes.Equal(out, baseline) {
		t.Fatal("output diverged under IPC faults")
	}
	if eng.Injected() == 0 {
		t.Fatal("no IPC faults fired; raise probabilities or change seed")
	}
	if snap := rt.Metrics.Snapshot(); snap.Retries == 0 {
		t.Fatalf("no retries recorded despite injected faults:\n%s", eng.Events().String())
	}
	if snap := rt.Metrics.Snapshot(); snap.Restarts != 0 {
		t.Fatalf("pure message faults caused %d restarts, want 0", snap.Restarts)
	}
}

// TestMemFaultStormDegradesGracefully makes every write into an agent space
// fault. Each partition that takes a write crash-loops until the breaker
// demotes it, and the pipeline still completes with correct output — the
// full graceful-degradation ladder, end to end.
func TestMemFaultStormDegradesGracefully(t *testing.T) {
	baseline := cleanPipeline(t)
	eng := chaos.New(chaos.Plan{Seed: 1, Mem: chaos.MemPlan{FaultProb: 1}})
	cfg := core.ChaosConfig(eng)
	cfg.BreakerThreshold = 2
	k, rt := setup(t, cfg)
	writeImage(k, "/in.img", 8, 8)
	out := runPipeline(t, rt)
	if !bytes.Equal(out, baseline) {
		t.Fatal("output diverged under the mem-fault storm")
	}
	if !rt.Host.Alive() {
		t.Fatal("host must survive")
	}
	snap := rt.Metrics.Snapshot()
	if snap.Degraded == 0 {
		t.Fatalf("mem-fault storm should degrade at least one partition: %+v", snap)
	}
	if snap.InjectedFaults == 0 {
		t.Fatal("no faults recorded")
	}
}

// TestConcurrentRestartDeadSingleRestart crashes one agent and then races
// many RestartDead supervisors (plus direct observers of the same crash):
// the process must be restarted exactly once, with no endpoint leaks and a
// working partition afterwards. Run with -race.
func TestConcurrentRestartDeadSingleRestart(t *testing.T) {
	k, rt := setup(t, core.Default())
	writeImage(k, "/in.img", 8, 8)
	lp, _ := rt.AgentForType(framework.TypeLoading)
	base := lp.Restarts()
	k.Crash(lp, "induced for concurrency test")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.RestartDead(); err != nil {
				t.Errorf("RestartDead: %v", err)
			}
		}()
	}
	wg.Wait()

	if !lp.Alive() {
		t.Fatal("loading agent should be alive")
	}
	if got := lp.Restarts() - base; got != 1 {
		t.Fatalf("process restarted %d times, want exactly 1", got)
	}
	if snap := rt.Metrics.Snapshot(); snap.Restarts != 1 {
		t.Fatalf("metrics restarts = %d, want 1", snap.Restarts)
	}
	if got := len(k.Processes()); got != 5 {
		t.Fatalf("%d processes after concurrent restart, want 5", got)
	}
	if got := rt.EndpointCount(); got != 5 {
		t.Fatalf("%d endpoints after concurrent restart, want 5", got)
	}
	if _, _, err := rt.Call("cv.imread", framework.Str("/in.img")); err != nil {
		t.Fatalf("post-restart imread: %v", err)
	}
}
