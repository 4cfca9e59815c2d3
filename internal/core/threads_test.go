package core_test

import (
	"sync"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
)

// threadGroup builds an n-thread group over one kernel.
func threadGroup(t *testing.T, n int) (*kernel.Kernel, *core.ThreadGroup) {
	t.Helper()
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	g, err := core.NewThreadGroup(k, reg, cat, core.Default(), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return k, g
}

func TestThreadGroupProcessLayout(t *testing.T) {
	k, g := threadGroup(t, 3)
	if g.Len() != 3 {
		t.Fatalf("len = %d", g.Len())
	}
	// One shared host + 4 agents per thread. (The two placeholder hosts
	// of threads 1 and 2 exit immediately at adoption.)
	running := 0
	for _, p := range k.Processes() {
		if p.Alive() {
			running++
		}
	}
	if running != 1+3*4 {
		t.Fatalf("running processes = %d, want 13", running)
	}
	// Every thread shares the same host process.
	for i := 0; i < g.Len(); i++ {
		if g.Thread(i).Host != g.Host {
			t.Fatalf("thread %d has its own host", i)
		}
	}
	// But each thread has distinct agents.
	a0, _ := g.Thread(0).AgentForType(framework.TypeLoading)
	a1, _ := g.Thread(1).AgentForType(framework.TypeLoading)
	if a0 == a1 {
		t.Fatal("threads share a loading agent")
	}
}

func TestThreadGroupConcurrentPipelines(t *testing.T) {
	k, g := threadGroup(t, 4)
	for i := 0; i < 4; i++ {
		writeImage(k, pathFor(i), 8, 8)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := g.Thread(i)
			img, _, err := rt.Call("cv.imread", framework.Str(pathFor(i)))
			if err != nil {
				errs[i] = err
				return
			}
			blur, _, err := rt.Call("cv.GaussianBlur", img[0].Value())
			if err != nil {
				errs[i] = err
				return
			}
			_, _, errs[i] = rt.Call("cv.imwrite", framework.Str(pathFor(i)+".out"), blur[0].Value())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
		if !k.FS.Exists(pathFor(i) + ".out") {
			t.Fatalf("thread %d produced no output", i)
		}
	}
}

func pathFor(i int) string {
	return "/thread-" + string(rune('a'+i)) + ".img"
}

func TestThreadCrashIsolatedToItsAgents(t *testing.T) {
	k, g := threadGroup(t, 2)
	writeImage(k, "/ok.img", 8, 8)
	k.FS.WriteFile("/evil.img", framework.Trigger("CVE-2017-14136", nil))

	// Thread 0 eats the exploit; its loading agent dies (then restarts).
	if _, _, err := g.Thread(0).Call("cv.imread", framework.Str("/evil.img")); err == nil {
		t.Fatal("exploit should error")
	}
	// Thread 1 is untouched throughout.
	if _, _, err := g.Thread(1).Call("cv.imread", framework.Str("/ok.img")); err != nil {
		t.Fatalf("thread 1 affected by thread 0's exploit: %v", err)
	}
	if !g.Host.Alive() {
		t.Fatal("shared host must survive")
	}
}

func TestThreadsShareHostCriticalData(t *testing.T) {
	k, g := threadGroup(t, 2)
	writeImage(k, "/in.img", 8, 8)
	// Thread 0 registers critical data; after it loads, the data is
	// read-only for the whole (shared) host space.
	crit, err := g.Host.Space().Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Host.Space().Store(crit.Base, []byte("shared"))
	g.Thread(0).RegisterCritical(crit)
	if _, _, err := g.Thread(0).Call("cv.imread", framework.Str("/in.img")); err != nil {
		t.Fatal(err)
	}
	if err := g.Host.Space().Store(crit.Base, []byte("x")); err == nil {
		t.Fatal("critical data should be sealed for every thread")
	}
}

// TestConcurrentCrossTypeCallsOneRuntime hammers one runtime per isolation
// preset with overlapping calls across every API type from many
// goroutines. Each agent serves one request at a time and answers it on
// its caller's goroutine, and the crossings that run in the host's
// address space (a domain-tier or in-host call, a fetch of an object
// there) hold the runtime's host lock, so one runtime safely serves
// concurrent work on every tier (verified under -race).
func TestConcurrentCrossTypeCallsOneRuntime(t *testing.T) {
	for _, pol := range isolation.Presets() {
		t.Run(pol.Name, func(t *testing.T) {
			k, rt := setup(t, core.ConfigForIsolation(pol))
			const workers = 8
			for i := 0; i < workers; i++ {
				writeImage(k, pathFor(i), 8, 8)
			}
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = crossAllTypes(rt, pathFor(i))
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
				if !k.FS.Exists(pathFor(i) + ".out") {
					t.Fatalf("worker %d produced no output", i)
				}
			}
		})
	}
}

// crossAllTypes crosses all four API types on rt: loading (imread),
// processing (GaussianBlur), a fetch of the blurred image, visualizing
// (imshow) and storing (imwrite), then releases both images.
func crossAllTypes(rt *core.Runtime, path string) error {
	img, _, err := rt.Call("cv.imread", framework.Str(path))
	if err != nil {
		return err
	}
	blur, _, err := rt.Call("cv.GaussianBlur", img[0].Value())
	if err != nil {
		return err
	}
	if _, err := rt.Fetch(blur[0]); err != nil {
		return err
	}
	if _, _, err := rt.Call("cv.imshow", framework.Str(path), blur[0].Value()); err != nil {
		return err
	}
	if _, _, err := rt.Call("cv.imwrite", framework.Str(path+".out"), blur[0].Value()); err != nil {
		return err
	}
	if err := rt.Release(blur[0]); err != nil {
		return err
	}
	return rt.Release(img[0])
}

func TestThreadGroupInvalidSize(t *testing.T) {
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	if _, err := core.NewThreadGroup(k, reg, cat, core.Default(), 0); err == nil {
		t.Fatal("n=0 should fail")
	}
}
