// Integration tests spanning every layer: the README quickstart flow, the
// full offline→online workflow of Fig. 5, and cross-cutting invariants
// that only hold when the substrate, frameworks, analysis, and runtime
// compose correctly.
package freepart

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/trace"
	"freepart.dev/freepart/internal/workload"
)

// TestQuickstartFlow mirrors the README snippet exactly.
func TestQuickstartFlow(t *testing.T) {
	k := kernel.New()
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(kernel.New(), runner)
	cat := analysis.New(reg, runner.Recorder).Categorize()

	rt, err := core.New(k, reg, cat, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	gen := workload.New(1)
	k.FS.WriteFile("/photo.img", gen.EncodedImage(32, 32, 1))

	img, _, err := rt.Call("cv.imread", framework.Str("/photo.img"))
	if err != nil {
		t.Fatal(err)
	}
	blur, _, err := rt.Call("cv.GaussianBlur", img[0].Value())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Call("cv.imshow", framework.Str("w"), blur[0].Value()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Call("cv.imwrite", framework.Str("/out.img"), blur[0].Value()); err != nil {
		t.Fatal(err)
	}
	if !k.FS.Exists("/out.img") {
		t.Fatal("quickstart produced no output")
	}
	if len(k.Processes()) != 5 {
		t.Fatalf("%d processes, want 5", len(k.Processes()))
	}
}

// TestFullWorkflowOfflineToOnline runs the complete Fig. 5 workflow: trace
// the framework suites, categorize, derive syscall policies from the
// target app's API usage, run the app protected, then attack it.
func TestFullWorkflowOfflineToOnline(t *testing.T) {
	// Offline.
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(kernel.New(), runner)
	analyzer := analysis.New(reg, runner.Recorder)
	cat := analyzer.Categorize()
	if acc, wrong := analyzer.Accuracy(cat); acc < 0.97 {
		t.Fatalf("categorization accuracy %.2f: %v", acc, wrong)
	}

	// Discover the app's API usage with a dry run.
	app, _ := apps.ByID(8)
	dryK := kernel.New()
	dryEnv := apps.NewEnv(dryK, core.NewDirect(dryK, all.Registry()), app)
	if err := app.Run(dryEnv); err != nil {
		t.Fatal(err)
	}

	// Online, with per-application syscall lockdown.
	k := kernel.New()
	cfg := core.Default()
	cfg.AppAPIs = dryEnv.Calls
	rt, err := core.New(k, reg, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	env := apps.NewEnv(k, rt, app)
	if err := app.Run(env); err != nil {
		t.Fatalf("protected run: %v", err)
	}
	for _, p := range k.Processes() {
		if len(p.Denials()) != 0 {
			t.Fatalf("false-positive denial in %s: %v", p.Name(), p.Denials())
		}
	}

	// Attack through every loading-type CVE the app is exposed to.
	log := &attack.Log{}
	rt.OnExploit = log.Handler()
	crit, _ := rt.Host.Space().Alloc(32)
	_ = rt.Host.Space().Store(crit.Base, []byte("master-answers"))
	rt.RegisterCritical(crit)
	for _, cve := range attack.EvalCVEs() {
		if cve.API != "cv.imread" {
			continue
		}
		k.FS.WriteFile("/evil.img", attack.Corrupt(cve.ID, crit.Base, []byte("OWNED")))
		_, _, _ = rt.Call("cv.imread", framework.Str("/evil.img"))
		if err := rt.RestartDead(); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := rt.Host.Space().Load(crit.Base, 14)
	if string(data) != "master-answers" {
		t.Fatal("critical data corrupted despite FreePart")
	}
	if !rt.Host.Alive() {
		t.Fatal("host died")
	}
}

// TestEveryEvalCVEFires checks that each Table 5 CVE actually detonates at
// its documented API site when driven with a crafted input.
func TestEveryEvalCVEFires(t *testing.T) {
	reg := all.Registry()
	for _, cve := range attack.EvalCVEs() {
		cve := cve
		t.Run(cve.ID, func(t *testing.T) {
			k := kernel.New()
			trace.SetupSuiteInputs(k)
			p := k.Spawn("victim")
			ctx := framework.NewCtx(k, p)
			log := &attack.Log{}
			ctx.OnExploit = log.Handler()
			api := reg.MustGet(cve.API)

			fireViaInput(t, k, ctx, api, attack.DoS(cve.ID))
			if log.Last() == nil || log.Last().CVE != cve.ID {
				t.Fatalf("%s did not fire at %s", cve.ID, cve.API)
			}
		})
	}
}

// fireViaInput drives an API with a crafted payload through whichever
// input channel the API consumes.
func fireViaInput(t *testing.T, k *kernel.Kernel, ctx *framework.Ctx, api *framework.API, crafted []byte) {
	t.Helper()
	switch api.Name {
	case "cv.imread", "cv.cvLoad", "torch.load":
		k.FS.WriteFile("/evil", crafted)
		_, _ = api.Exec(ctx, []framework.Value{framework.Str("/evil")})
	case "cv.VideoCapture.read":
		evil := kernel.NewCamera("/dev/evilcam")
		evil.Push(crafted)
		k.AddCamera(evil)
		h, _, err := ctx.NewBlob([]byte("/dev/evilcam"))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = api.Exec(ctx, []framework.Value{framework.Obj(h)})
	case "cv.imshow":
		id, _, err := ctx.NewMatFromBytes(1, len(crafted), 1, crafted)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = api.Exec(ctx, []framework.Value{framework.Str("w"), framework.Obj(id)})
	case "cv.CascadeClassifier.detectMultiScale":
		model, _, err := ctx.NewBlob([]byte{'C', 'A', 'S', 'C', 100, 0, 0, 0, 4})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := ctx.NewMatFromBytes(1, len(crafted), 1, crafted)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = api.Exec(ctx, []framework.Value{framework.Obj(model), framework.Obj(id)})
	case "cv.warpPerspective", "cv.equalizeHist", "cv.findContours":
		id, _, err := ctx.NewMatFromBytes(1, len(crafted), 1, crafted)
		if err != nil {
			t.Fatal(err)
		}
		args := []framework.Value{framework.Obj(id)}
		if api.Name == "cv.warpPerspective" {
			hid, h, herr := ctx.NewTensor(3, 3)
			if herr != nil {
				t.Fatal(herr)
			}
			_ = h.SetValues([]float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
			args = append(args, framework.Obj(hid))
		}
		_, _ = api.Exec(ctx, args)
	case "tf.nn.conv3d":
		vals := padTrigger(crafted, 27)
		id, tt, err := ctx.NewTensor(3, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		_ = tt.SetValues(vals)
		_, _ = api.Exec(ctx, []framework.Value{framework.Obj(id)})
	case "tf.nn.avg_pool", "tf.nn.max_pool", "tf.matmul":
		vals := padTrigger(crafted, 64)
		id, tt, err := ctx.NewTensor(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		_ = tt.SetValues(vals)
		args := []framework.Value{framework.Obj(id)}
		if api.Name == "tf.matmul" {
			args = append(args, framework.Obj(id))
		}
		_, _ = api.Exec(ctx, args)
	default:
		t.Fatalf("no input channel for %s", api.Name)
	}
}

// padTrigger converts crafted bytes into n float64 values.
func padTrigger(crafted []byte, n int) []float64 {
	vals := make([]float64, n)
	for i := 0; i < len(crafted) && i < n; i++ {
		vals[i] = float64(crafted[i])
	}
	return vals
}

// TestIsolationTransitivity: an exploit in one agent can never observe or
// alter another agent's objects, even with a valid-looking ref — refs are
// only honored through the runtime's endpoints, and spaces are disjoint.
func TestIsolationTransitivity(t *testing.T) {
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	rt, err := core.New(k, reg, cat, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	gen := workload.New(3)
	k.FS.WriteFile("/in.img", gen.EncodedImage(8, 8, 1))
	img, _, _ := rt.Call("cv.imread", framework.Str("/in.img"))

	// The loaded image lives in the loading agent. Writing at its address
	// from the processing agent's space is a wild write.
	space, region, ok := rt.Locate(img[0])
	if !ok {
		t.Fatal("locate failed")
	}
	dp, _ := rt.AgentForType(framework.TypeProcessing)
	err = dp.Space().Store(region.Base, []byte{0xFF})
	if !isFaultOrForeign(err) {
		// The address may be mapped in the DP space (its own allocation) —
		// then the write must not have touched the loading agent's bytes.
		got, _ := space.Load(region.Base, 1)
		if got[0] == 0xFF {
			t.Fatal("cross-agent write reached the loading agent")
		}
	}
}

// isFaultOrForeign treats any error as proof the write failed.
func isFaultOrForeign(err error) bool { return err != nil }

// TestCrashedAgentRefsFailCleanly: refs into a crashed-and-restarted agent
// must not resolve to garbage.
func TestCrashedAgentRefsFailCleanly(t *testing.T) {
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	rt, err := core.New(k, reg, cat, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	gen := workload.New(3)
	k.FS.WriteFile("/in.img", gen.EncodedImage(8, 8, 1))
	img, _, _ := rt.Call("cv.imread", framework.Str("/in.img"))

	loading, _ := rt.AgentForType(framework.TypeLoading)
	k.Crash(loading, "injected")
	if err := rt.RestartDead(); err != nil {
		t.Fatal(err)
	}
	// The image was not checkpointed (imread's result isn't stateful API
	// state), so the old ref must error, not return stale bytes.
	_, _, err = rt.Call("cv.GaussianBlur", img[0].Value())
	if err == nil {
		t.Fatal("stale ref into restarted agent should fail")
	}
	if errors.Is(err, ipc.ErrAgentCrashed) {
		t.Fatal("a dangling ref is an application error, not a crash")
	}
	// Reload and continue.
	img2, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Call("cv.GaussianBlur", img2[0].Value()); err != nil {
		t.Fatal(err)
	}
}

// TestFileReadsLeaveFilesUnchanged: kernel.FS.ReadFile hands out a file's
// own bytes, so a reader that wrote into them would change the file. Every
// file is read, and its bytes hashed, before the trace suite and before
// each of the 23 apps at 8x, run under core.Direct and under the paper
// defaults of core.New, with a crafted imread input that fires through
// MaybeExploit after each app. After the run every one of those byte
// slices hashes as it did, and every ReadFile result has its length as its
// capacity. The slices, not the paths, are hashed again because an app may
// replace its own files (OMRChecker writes new sheets over its inputs);
// replacing a file leaves the bytes handed out before untouched.
func TestFileReadsLeaveFilesUnchanged(t *testing.T) {
	type read struct {
		data []byte
		sum  [sha256.Size]byte
	}
	readAll := func(k *kernel.Kernel) map[string]read {
		out := map[string]read{}
		for _, p := range k.FS.List("") {
			data, err := k.FS.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if cap(data) != len(data) {
				t.Fatalf("ReadFile(%s) has cap %d for %d bytes", p, cap(data), len(data))
			}
			out[p] = read{data, sha256.Sum256(data)}
		}
		return out
	}
	unchanged := func(run string, k *kernel.Kernel, before map[string]read) {
		for p, r := range before {
			if sha256.Sum256(r.data) != r.sum {
				t.Errorf("%s wrote into the bytes of %s", run, p)
			}
		}
		readAll(k)
	}

	k := kernel.New()
	trace.SetupSuiteInputs(k)
	before := readAll(k)
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	builders := trace.Builders()
	for _, api := range reg.All() {
		b, ok := builders[api.Name]
		if !ok {
			b = trace.DefaultBuilder(api)
		}
		_, _ = runner.RunAPI(k, api, b)
	}
	unchanged("the trace suite", k, before)
	cat := analysis.New(reg, runner.Recorder).Categorize()

	for _, protected := range []bool{false, true} {
		for _, a := range apps.All() {
			k := kernel.New()
			var log attack.Log
			var ex core.Caller
			if protected {
				rt, err := core.New(k, all.Registry(), cat, core.Default())
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				rt.OnExploit = log.Handler()
				ex = rt
			} else {
				d := core.NewDirect(k, all.Registry())
				d.Ctx.OnExploit = log.Handler()
				ex = d
			}
			env := apps.NewEnvScaled(k, ex, a, 8)
			k.FS.WriteFile("/crafted.img", attack.DoS(simcv.CVEImreadDoS))
			run := fmt.Sprintf("%s (protected %v)", a.Name, protected)
			before := readAll(k)
			if err := a.Run(env); err != nil {
				t.Fatalf("%s: %v", run, err)
			}
			if _, _, err := ex.Call("cv.imread", framework.Str("/crafted.img")); err == nil || len(log.Outcomes) != 1 {
				t.Fatalf("%s: crafted imread = %v, %d exploits fired", run, err, len(log.Outcomes))
			}
			unchanged(run, k, before)
		}
	}
}
