// Benchmark harness: one benchmark family per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment from the
// simulation; wall time measures the reproduction harness itself, while
// the experiment's own results are deterministic virtual-time numbers
// (report the tables with cmd/experiments).
//
//	go test -bench=. -benchmem
package freepart

import (
	"runtime"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/baseline"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simtorch"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/report"
	"freepart.dev/freepart/internal/trace"
	"freepart.dev/freepart/internal/workload"
)

// BenchmarkTable1_SecurityMatrix regenerates the effectiveness comparison:
// all five baselines plus FreePart under the M/C/D attacks.
func BenchmarkTable1_SecurityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_Categorization regenerates the motivating example's API
// categorization via the full hybrid analysis.
func BenchmarkTable2_Categorization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := kernel.New()
		reg := all.Registry()
		runner := trace.NewRunner(reg)
		trace.RunSuite(k, runner)
		cat := analysis.New(reg, runner.Recorder).Categorize()
		if cat.TypeOf("cv.imread") != framework.TypeLoading {
			b.Fatal("categorization broke")
		}
	}
}

// BenchmarkTable3_Study56 regenerates the vulnerable-API usage study.
func BenchmarkTable3_Study56(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := attack.Table3(attack.Study56())
		if len(rows) != 5 {
			b.Fatal("study broke")
		}
	}
}

// BenchmarkTable5_ExploitConstruction builds and fires all 18 evaluation
// exploits against a victim process.
func BenchmarkTable5_ExploitConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := kernel.New()
		p := k.Spawn("victim")
		ctx := framework.NewCtx(k, p)
		log := &attack.Log{}
		ctx.OnExploit = log.Handler()
		for _, cve := range attack.EvalCVEs() {
			k.FS.WriteFile("/evil", attack.DoS(cve.ID))
		}
	}
}

// BenchmarkTable6_AppSweep runs all 23 evaluation applications unprotected.
func BenchmarkTable6_AppSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range apps.All() {
			k := kernel.New()
			e := apps.NewEnv(k, core.NewDirect(k, all.Registry()), a)
			if err := a.Run(e); err != nil {
				b.Fatalf("%s: %v", a.Name, err)
			}
		}
	}
}

// BenchmarkTable7_SyscallDerivation derives the per-agent syscall policies.
func BenchmarkTable7_SyscallDerivation(b *testing.B) {
	reg := all.Registry()
	a := analysis.New(reg, nil)
	cat := a.Categorize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := a.DeriveSyscallPolicy(cat, nil)
		if len(p) != 4 {
			b.Fatal("policy derivation broke")
		}
	}
}

// BenchmarkTable9_TechniqueComparison measures the OMR workload across all
// techniques (the Table 9 rows).
func BenchmarkTable9_TechniqueComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, kind := range []baseline.Kind{
			baseline.CodeAPI, baseline.CodeAPIData, baseline.LibraryEntire,
			baseline.LibraryPerAPI, baseline.MemoryBased,
		} {
			if _, err := baseline.MeasureBaseline(kind, 1, 8, 4, baseline.DefaultCell); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := baseline.MeasureFreePart(true, 1, 8, 4, baseline.DefaultCell); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable11_DynamicAnalysis runs the full dynamic-analysis suite.
func BenchmarkTable11_DynamicAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := kernel.New()
		runner := trace.NewRunner(all.Registry())
		trace.RunSuite(k, runner)
	}
}

// BenchmarkTable12_LDC runs an app under FreePart and checks the lazy-copy
// fraction (the Table 12 measurement).
func BenchmarkTable12_LDC(b *testing.B) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	a, _ := apps.ByID(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := kernel.New()
		rt, err := core.New(k, reg, cat, core.Default())
		if err != nil {
			b.Fatal(err)
		}
		e := apps.NewEnv(k, rt, a)
		if err := a.Run(e); err != nil {
			b.Fatal(err)
		}
		if rt.Metrics.Snapshot().LazyFraction() < 0.5 {
			b.Fatal("LDC fraction collapsed")
		}
		rt.Close()
	}
}

// BenchmarkFig4_Partitions sweeps partition counts 4..8 with one random
// sample each.
func BenchmarkFig4_Partitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := baseline.SweepPartitions(4, 8, 1, 1, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_CVECorpus regenerates and tabulates the 241-CVE corpus.
func BenchmarkFig7_CVECorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := attack.CorpusByTypeAndClass(attack.StudyCorpus())
		if len(tab) != 4 {
			b.Fatal("corpus broke")
		}
	}
}

// BenchmarkFig13_Overhead measures one app's protected-vs-direct overhead
// (the Fig. 13 per-app measurement).
func BenchmarkFig13_Overhead(b *testing.B) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	a, _ := apps.ByID(4) // lbpcascade_anime: a mid-weight pipeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k1 := kernel.New()
		e1 := apps.NewEnv(k1, core.NewDirect(k1, all.Registry()), a)
		if err := a.Run(e1); err != nil {
			b.Fatal(err)
		}
		k2 := kernel.New()
		rt, err := core.New(k2, reg, cat, core.Default())
		if err != nil {
			b.Fatal(err)
		}
		e2 := apps.NewEnv(k2, rt, a)
		if err := a.Run(e2); err != nil {
			b.Fatal(err)
		}
		rt.Close()
	}
}

// callPathRuntime builds the protected runtime of the call-path benchmark
// and returns it with the image cv.threshold is called on.
func callPathRuntime(tb testing.TB) (*core.Runtime, framework.Value) {
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	rt, err := core.New(k, reg, cat, core.Default())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	gen := workload.New(1)
	k.FS.WriteFile("/in.img", gen.EncodedImage(16, 16, 1))
	imgs, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		tb.Fatal(err)
	}
	return rt, imgs[0].Value()
}

// callThreshold is one iteration of the protected call path: a
// cv.threshold call whose output is released, as the direct benchmark frees
// its own, so the loop runs in bounded memory on both sides.
func callThreshold(rt *core.Runtime, img framework.Value) error {
	out, _, err := rt.Call("cv.threshold", img)
	if err != nil {
		return err
	}
	return rt.Release(out[0])
}

// BenchmarkRuntime_CallPath measures the hot interposition path: one DP
// call through the full RPC machinery, its release list included.
func BenchmarkRuntime_CallPath(b *testing.B) {
	rt, img := callPathRuntime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := callThreshold(rt, img); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRuntime_CallPathAllocs bounds the heap allocations of one protected
// call and its release, wire codec and IPC crossing included, at 7, the
// count made. What a call still allocates outlives it: the reply bytes the
// dedup cache keeps, the argument list handed to the API, the result
// handle and its header copy, and the API's own work. The bound fails when
// the call path dispatches through an interface again, which makes the
// caller's argument list escape (8), when cv.threshold reads its input
// through PayloadBytes again, or when a crossing allocates anything per
// call again (1 to 4 each): the request bytes, the API name as a new
// string, the host's converted argument list, the agent's decoded call or
// its reply lists, a payload list of empty entries, the host's decoded
// reply, a header decoded into new memory, or one encoded on every RefFor.
func TestRuntime_CallPathAllocs(t *testing.T) {
	skipUnderRace(t)
	rt, img := callPathRuntime(t)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if cerr := callThreshold(rt, img); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocs per protected call", allocs)
	if allocs > 7 {
		t.Fatalf("one protected cv.threshold call made %.0f allocs, want <= 7", allocs)
	}
}

// skipUnderRace skips an allocation bound in the race build, where the
// counts vary from run to run (raceEnabled). The normal build runs every
// bound.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
}

// TestDetectionRequestAllocs is the stateful row of the call-path bound:
// one detection request served through DetectionServer.Serve, one request
// per call, on two protected shards under the paper policy with the
// executor's checkpoint log attached. 31 allocations are made; the bound of
// 31 fails when grayOf copies a one-channel image again, a kernel reads its
// input through PayloadBytes again or WriteFile copies the body again (32
// each), or a crossing builds any of its per-call lists again, decodes a
// ref's header into new memory, or encodes an object's header again on
// every RefFor and checkpoint, a checkpoint copies its snapshot again, or
// the checkpoint log allocates a node per append again (3 or more per
// request each: a request appends 3 checkpoints).
func TestDetectionRequestAllocs(t *testing.T) {
	skipUnderRace(t)
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	ex, err := core.NewExecutor(2, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		t.Fatal(err)
	}
	reqs := apps.GenDetectionRequests(1, 200)
	next := 0
	allocs := testing.AllocsPerRun(len(reqs)-1, func() {
		if res := srv.Serve(reqs[next : next+1]); res[0].Err != nil && err == nil {
			err = res[0].Err
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := ex.CheckpointLog().Stats(); st.Appends == 0 {
		t.Fatal("no checkpoint was written through to the log")
	}
	t.Logf("%.0f allocs per detection request", allocs)
	if allocs > 31 {
		t.Fatalf("one protected detection request made %.0f allocs, want <= 31", allocs)
	}
}

// TestTrackingWaveAllocs is the checkpointed write path's row: one wave of
// four tracking streams served by TrackingServer.ServeRamp on two protected
// shards under the paper policy, each step one stateful
// cv.KalmanFilter.correct call whose state is checkpointed through the
// executor's log. The ramp's own set-up (sessions, state tensors) is
// amortized over its 200 waves. About 26.6 allocations are made per wave,
// one step per stream; the bound of 27 fails when a crossing allocates
// anything per call again (4 or more per wave each): the request bytes, the
// API name as a new string, any of the per-call lists, a ref's header
// decoded into new memory, the header a checkpoint or a RefFor encodes, a
// second copy of a checkpoint, or a reply copied on its way back. It also
// fails when the checkpoint log allocates a node per append again (4 per
// wave: each step appends one checkpoint). Its state objects are less than
// a page, so the shared slabs do not reach this path.
func TestTrackingWaveAllocs(t *testing.T) {
	skipUnderRace(t)
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	ex, err := core.NewExecutor(2, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	srv := apps.ProvisionTracking(ex)
	const streams, waves = 4, 200
	ramps := [][]apps.TrackStream{apps.GenTrackStreams(1, streams, waves), apps.GenTrackStreams(2, streams, waves)}
	next := 0
	perRamp := testing.AllocsPerRun(1, func() {
		for _, r := range srv.ServeRamp(ramps[next], nil, nil) {
			if r.Err != nil && err == nil {
				err = r.Err
			}
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := ex.CheckpointLog().Stats(); st.Appends < 2*streams*waves {
		t.Fatalf("%d checkpoints written through to the log, want one per step", st.Appends)
	}
	allocs := perRamp / waves
	t.Logf("%.1f allocs per tracking wave", allocs)
	if allocs > 27 {
		t.Fatalf("one protected tracking wave made %.1f allocs, want <= 27", allocs)
	}
}

// TestReplacementShardAllocs bounds what building a shard costs once its
// factory has built one: the second and later shards a ChaosShards factory
// builds, as a failover replacement is built mid-run, under a plan whose
// every probability is 0, as track-chaos's replacements run. 153
// allocations (15.0 KB) are made per shard; the bound of 153 fails when a
// shard derives its syscall policies again (48 more, 17.4 KB) or a chaos
// engine seeds its PRNG when it is made instead of at its first draw (2
// more, 5.4 KB).
func TestReplacementShardAllocs(t *testing.T) {
	skipUnderRace(t)
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	f := core.ChaosShards(reg, cat, core.ChaosConfig(nil), func(id, gen int) chaos.Plan { return chaos.Scaled(1, 0).ForShard(id) })
	first, err := f(1)
	if err != nil {
		t.Fatal(err)
	}
	first.Rt.Close()
	allocs := testing.AllocsPerRun(20, func() {
		sh, berr := f(1)
		if berr != nil {
			err = berr
			return
		}
		sh.Rt.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocs per replacement shard", allocs)
	if allocs > 153 {
		t.Fatalf("one replacement shard made %.0f allocs, want <= 153", allocs)
	}
}

// appRun is one Fig. 13 app set up to run: the app at 8x input scale on
// its own core.New runtime with the paper defaults and the hybrid
// categorization.
type appRun struct {
	app apps.App
	env *apps.Env
}

// fig13AppRuns sets up every app of apps.All() as Fig. 13 runs it.
func fig13AppRuns(t *testing.T) []appRun {
	t.Helper()
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(kernel.New(), runner)
	cat := analysis.New(reg, runner.Recorder).Categorize()
	var runs []appRun
	for _, a := range apps.All() {
		k := kernel.New()
		rt, err := core.New(k, all.Registry(), cat, core.Default())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		runs = append(runs, appRun{app: a, env: apps.NewEnvScaled(k, rt, a, 8)})
	}
	return runs
}

// TestAppRunAllocs bounds the heap allocations of one Fig. 13 app run,
// averaged over the apps after the first (the warm-up run). 621
// allocations are made; the bound of 622 fails when MatFromBytes stores
// into a new slab again (634). Read against the 634 made before objects
// took their bytes over, it also fails when a snapshot copies the region
// again (+23), the simtorch kernels read their operands with Values again
// (+22), kernels read their input mats through PayloadBytes again (+17), a
// whole-region copy copies the slab again (+12), the dedup cache is a map
// again (+11), torch.tensor fills a Go slice again or grayOf copies a
// one-channel image again (+5 each), the drawing kernels copy their canvas
// again (+4) or WriteFile copies its buffer again (+3), and so when the
// simulated MMU allocates a record and a byte array per page again or a
// crossing allocates anything per call again (each adds 40 or more).
func TestAppRunAllocs(t *testing.T) {
	skipUnderRace(t)
	runs := fig13AppRuns(t)
	var err error
	next := 0
	allocs := testing.AllocsPerRun(len(runs)-1, func() {
		r := runs[next]
		if rerr := r.app.Run(r.env); rerr != nil && err == nil {
			err = rerr
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocs per app run", allocs)
	if allocs > 622 {
		t.Fatalf("one Fig. 13 app run made %.0f allocs, want <= 622", allocs)
	}
}

// TestAppRunBytes bounds the Go bytes one Fig. 13 app run allocates,
// counted as runtime.MemStats.TotalAlloc across all 23 runs with their
// set-up excluded. About 1.08 MB per run are allocated; the bound of 1.1 MB
// fails when MatFromBytes stores into a new slab again (1.49 MB) or
// NewBlob copies a loaded file again (1.23 MB). Read against the 1.64 MB
// allocated before objects took their bytes over, it also fails when a
// snapshot copies the region again (+1.12 MB), the simtorch kernels read
// their operands with Values again (+0.77 MB), kernels read their input
// mats through PayloadBytes again (+0.61 MB), a whole-region copy copies
// the slab again (+0.57 MB), components builds a label array its caller
// drops again or torch.tensor fills a Go slice again (+0.27 MB each), the
// forward reads its input with Values again (+0.21 MB), grayOf copies a
// one-channel image again (+0.20 MB), the drawing kernels copy their
// canvas again (+0.15 MB) or WriteFile copies its buffer again (+0.08 MB).
func TestAppRunBytes(t *testing.T) {
	skipUnderRace(t)
	runs := fig13AppRuns(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range runs {
		if err := r.app.Run(r.env); err != nil {
			t.Fatalf("%s: %v", r.app.Name, err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(runs))
	t.Logf("%.0f bytes per app run", perRun)
	if perRun > 1.1e6 {
		t.Fatalf("one Fig. 13 app run allocated %.0f bytes, want <= 1.1 MB", perRun)
	}
}

// TestAppRunLiveBytes bounds the Go heap the 23 Fig. 13 app runs keep live:
// HeapAlloc after a collection, read before the runs are set up and again
// after all of them ran, with every run kept alive. About 62.3 MB stay
// live; the bound of 63 MB fails when MatFromBytes stores into a new slab
// again (67.8 MB) or NewBlob copies a loaded file again (65.6 MB). Read
// against the 71.1 MB kept before objects took their bytes over, it also
// fails when a snapshot copies the region again (+22.3 MB) or a
// whole-region copy copies the slab again (+9.9 MB).
func TestAppRunLiveBytes(t *testing.T) {
	before := liveHeap()
	runs := fig13AppRuns(t)
	for _, r := range runs {
		if err := r.app.Run(r.env); err != nil {
			t.Fatalf("%s: %v", r.app.Name, err)
		}
	}
	live := liveHeap() - before
	runtime.KeepAlive(runs)
	t.Logf("%.2f MB live after the 23 app runs", float64(live)/1e6)
	if live > 63e6 {
		t.Fatalf("the 23 Fig. 13 app runs keep %.2f MB live, want <= 63 MB", float64(live)/1e6)
	}
}

// TestModelForwardAllocs is the kernels' row: torch.Module.forward over a
// 32,768-element input (256 KiB), with a model of a hidden layer of 2 and
// an output layer of 2, called on one process. The forward reads its input
// and the model's weights where they lie, so a call allocates about 5 KB:
// the layers' outputs and the result tensor with its page. The bound, a
// tenth of the input's bytes, fails when the forward reads its input with
// Values again (267 KB per call).
func TestModelForwardAllocs(t *testing.T) {
	skipUnderRace(t)
	const n = 32768
	k := kernel.New()
	ctx := framework.NewCtx(k, k.Spawn("forward"))
	mid, _, err := ctx.NewBlob(simtorch.EncodeModel([][]float64{make([]float64, 2*n), {1, 0, 0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	tid, in, err := ctx.NewTensor(n)
	if err == nil {
		err = in.SetValues(make([]float64, n))
	}
	if err != nil {
		t.Fatal(err)
	}
	fwd := all.Registry().MustGet("torch.Module.forward")
	args := []framework.Value{framework.Obj(mid), framework.Obj(tid)}
	call := func() {
		if _, err := fwd.Exec(ctx, args); err != nil {
			t.Fatal(err)
		}
	}
	call()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		call()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per forward over a %d-byte input", perCall, in.Size())
	if perCall >= uint64(in.Size())/10 {
		t.Fatalf("a forward over a %d-byte input allocated %d bytes, want < %d", in.Size(), perCall, in.Size()/10)
	}
}

// TestCVEPoolScanAllocs is the crafted-tensor scan's row: tf.nn.avg_pool,
// whose CVE has it scan its input for a trigger before it pools, called on
// a 64×64 tensor of 1.5s, allocates no more bytes than torch.avg_pool2d,
// which has no CVE and does not scan, on the same tensor. The scan stops
// at the tensor's first element, so it allocates nothing: 8,863 B per
// call against 8,936 B. The bound fails when the scan allocates a buffer
// of the tensor's element count again (12,959 B per call).
func TestCVEPoolScanAllocs(t *testing.T) {
	skipUnderRace(t)
	k := kernel.New()
	ctx := framework.NewCtx(k, k.Spawn("pool"))
	tid, in, err := ctx.NewTensor(64, 64)
	if err == nil {
		vals := make([]float64, 64*64)
		for i := range vals {
			vals[i] = 1.5
		}
		err = in.SetValues(vals)
	}
	if err != nil {
		t.Fatal(err)
	}
	reg := all.Registry()
	bytesPerCall := func(name string) uint64 {
		api := reg.MustGet(name)
		args := []framework.Value{framework.Obj(tid)}
		call := func() {
			if _, err := api.Exec(ctx, args); err != nil {
				t.Fatal(err)
			}
		}
		call()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			call()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	scanning, plain := bytesPerCall("tf.nn.avg_pool"), bytesPerCall("torch.avg_pool2d")
	t.Logf("%d bytes per tf.nn.avg_pool, %d per torch.avg_pool2d", scanning, plain)
	if scanning > plain {
		t.Fatalf("tf.nn.avg_pool allocated %d bytes per call, torch.avg_pool2d %d; the trigger scan allocates", scanning, plain)
	}
}

// liveHeap returns the bytes the heap holds after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkDirect_CallPath is the unprotected counterpart of the call-path
// benchmark (the wall-time cost of the interposition machinery itself).
func BenchmarkDirect_CallPath(b *testing.B) {
	k := kernel.New()
	d := core.NewDirect(k, all.Registry())
	gen := workload.New(1)
	k.FS.WriteFile("/in.img", gen.EncodedImage(16, 16, 1))
	imgs, _, err := d.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := d.Call("cv.threshold", imgs[0].Value())
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Release(out[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServing_Sharded runs the session-sharded detection service at 4
// protected shards over a fixed request stream.
func BenchmarkServing_Sharded(b *testing.B) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	reqs := apps.GenDetectionRequests(7, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := core.NewExecutor(4, core.ProtectedShards(reg, cat, core.Default()))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := apps.ProvisionDetection(ex)
		if err != nil {
			b.Fatal(err)
		}
		if got := apps.Served(srv.Serve(reqs)); got != len(reqs) {
			b.Fatalf("served %d/%d", got, len(reqs))
		}
		ex.Close()
	}
}

// BenchmarkServing_Scaling regenerates the shard-count sweep behind
// BENCH_serving.json and asserts the scaling claim holds.
func BenchmarkServing_Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := report.MeasureServing([]int{1, 2, 4, 8}, 32)
		if err != nil {
			b.Fatal(err)
		}
		if results[2].Speedup < 2 {
			b.Fatalf("4-shard speedup %.2fx, want >= 2x", results[2].Speedup)
		}
	}
}

// BenchmarkA14_SubPartitioning measures the adversarial hot-pair split.
func BenchmarkA14_SubPartitioning(b *testing.B) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.MeasurePartitioned(5, baseline.SplitHotPairPartitionOf(cat), 1, 8, 4, baseline.DefaultCell); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Mechanisms regenerates the per-mechanism overhead
// ablation (the DESIGN.md design-choice benches).
func BenchmarkAblation_Mechanisms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Ablation(1); err != nil {
			b.Fatal(err)
		}
	}
}
