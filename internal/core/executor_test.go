package core_test

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
)

// newExecutor builds an executor of n protected shards with cleanup.
func newExecutor(t *testing.T, n int, cfg core.Config) *core.Executor {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	ex, err := core.NewExecutor(n, core.ProtectedShards(reg, cat, cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	return ex
}

// omrOnShard runs the OMR pipeline on a shard and returns the results.csv
// bytes and per-sheet scores.
func omrOnShard(t *testing.T, sh *core.Shard, sheets int) ([]byte, []int) {
	t.Helper()
	a, _ := apps.ByID(8) // OMRChecker
	e := apps.NewEnv(sh.K, sh.Ex, a)
	var scores []int
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("pipeline aborted: %v", r)
			}
		}()
		_, scores, err = apps.OMRGradeAll(e, sheets)
	}()
	if err != nil {
		t.Fatalf("OMRGradeAll: %v", err)
	}
	csv, err := sh.K.FS.ReadFile(e.Dir + "/results.csv")
	if err != nil {
		t.Fatalf("results.csv: %v", err)
	}
	return csv, scores
}

// omrSynchronous runs OMR on a plain runtime (the pre-executor code path).
func omrSynchronous(t *testing.T, cfg core.Config, sheets int) ([]byte, []int) {
	t.Helper()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	k := kernel.New()
	rt, err := core.New(k, reg, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	a, _ := apps.ByID(8)
	e := apps.NewEnv(k, rt, a)
	var scores []int
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("pipeline aborted: %v", r)
			}
		}()
		_, scores, err = apps.OMRGradeAll(e, sheets)
	}()
	if err != nil {
		t.Fatalf("OMRGradeAll: %v", err)
	}
	csv, err := k.FS.ReadFile(e.Dir + "/results.csv")
	if err != nil {
		t.Fatalf("results.csv: %v", err)
	}
	return csv, scores
}

// TestExecutorConcurrencyOneMatchesSynchronous pins the refactor's core
// obligation: an executor with one shard is the synchronous path — the OMR
// pipeline produces byte-identical output either way.
func TestExecutorConcurrencyOneMatchesSynchronous(t *testing.T) {
	const sheets = 2
	syncCSV, syncScores := omrSynchronous(t, core.Default(), sheets)

	ex := newExecutor(t, 1, core.Default())
	s := ex.Session()
	var exCSV []byte
	var exScores []int
	err := s.Do(func(sh *core.Shard) error {
		exCSV, exScores = omrOnShard(t, sh, sheets)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exCSV, syncCSV) {
		t.Fatalf("executor output diverged from synchronous path\nexec: %q\nsync: %q", exCSV, syncCSV)
	}
	if !reflect.DeepEqual(exScores, syncScores) {
		t.Fatalf("scores diverged: %v vs %v", exScores, syncScores)
	}
}

// TestExecutorChaosDeterministicAtOneShard extends the obligation to chaos
// runs: with one shard, an executor run under a seeded engine must produce
// the same bytes AND the same injection log as the synchronous path — the
// chaos-replay guarantee survives the serving refactor.
func TestExecutorChaosDeterministicAtOneShard(t *testing.T) {
	const sheets, seed = 2, 17

	engSync := chaos.New(chaos.Scaled(seed, 0.05))
	syncCSV, _ := omrSynchronous(t, core.ChaosConfig(engSync), sheets)

	engExec := chaos.New(chaos.Scaled(seed, 0.05))
	ex := newExecutor(t, 1, core.ChaosConfig(engExec))
	s := ex.Session()
	var exCSV []byte
	err := s.Do(func(sh *core.Shard) error {
		exCSV, _ = omrOnShard(t, sh, sheets)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exCSV, syncCSV) {
		t.Fatalf("chaos output diverged\nexec: %q\nsync: %q\nexec log:\n%s\nsync log:\n%s",
			exCSV, syncCSV, engExec.Events().String(), engSync.Events().String())
	}
	if !reflect.DeepEqual(engExec.Events(), engSync.Events()) {
		t.Fatalf("injection logs diverged:\n%s\nvs\n%s", engExec.Events().String(), engSync.Events().String())
	}
}

// TestExecutorSessionRoundRobin checks deterministic shard placement.
func TestExecutorSessionRoundRobin(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(3, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	for i := 0; i < 7; i++ {
		s := ex.Session()
		if s.ID != i {
			t.Fatalf("session %d has id %d", i, s.ID)
		}
		if got := s.Shard().ID; got != i%3 {
			t.Fatalf("session %d placed on shard %d, want %d", i, got, i%3)
		}
	}
}

// TestExecutorBoundsConcurrency checks that at most n invocations run at
// once: the pool admits one worker per shard.
func TestExecutorBoundsConcurrency(t *testing.T) {
	reg := all.Registry()
	const n = 2
	ex, err := core.NewExecutor(n, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)

	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		s := ex.Session()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Do(func(sh *core.Shard) error {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				sh.K.Clock.Advance(1) // touch the shard so the job isn't empty
				cur.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > n {
		t.Fatalf("observed %d concurrent invocations, pool bound is %d", got, n)
	}
	if ex.Latencies().Len() != 8 {
		t.Fatalf("recorded %d latency samples, want 8", ex.Latencies().Len())
	}
}

// TestExecutorSharedStoreBuildsOnce checks the shared model file: the four
// shards' /srv/model.xml are one backing array, built once (FS.ReadFile
// hands out a file's own bytes).
func TestExecutorSharedStoreBuildsOnce(t *testing.T) {
	reg := all.Registry()
	ex, err := core.NewExecutor(4, core.DirectShards(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < ex.Shards(); i++ {
		model, err := ex.Shard(i).K.FS.ReadFile("/srv/model.xml")
		if err != nil || len(model) == 0 {
			t.Fatalf("shard %d has no model file (err %v)", i, err)
		}
		if i == 0 {
			first = model
		} else if &model[0] != &first[0] {
			t.Fatalf("shard %d reads its own copy of the model, not the shared one", i)
		}
	}
	reqs := apps.GenDetectionRequests(3, 12)
	results := srv.Serve(reqs)
	if got := apps.Served(results); got != len(reqs) {
		t.Fatalf("served %d/%d", got, len(reqs))
	}
	// Round-robin: 12 requests over 4 shards, 3 each.
	for i, l := range ex.ShardLoads() {
		if l.Jobs != 3 {
			t.Fatalf("shard %d ran %d jobs, want 3", i, l.Jobs)
		}
	}
}

// TestExecutorConcurrentSessionsOnProtectedShards drives overlapping
// pipeline invocations through protected runtimes from many goroutines —
// the serving layer's steady state, under the race detector.
func TestExecutorConcurrentSessionsOnProtectedShards(t *testing.T) {
	ex := newExecutor(t, 4, core.Default())
	const sessions = 12
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		s := ex.Session()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Do(func(sh *core.Shard) error {
				path := pathFor(i % 8)
				writeImage(sh.K, path, 8, 8)
				img, _, err := sh.Ex.Call("cv.imread", framework.Str(path))
				if err != nil {
					return err
				}
				blur, _, err := sh.Ex.Call("cv.GaussianBlur", img[0].Value())
				if err != nil {
					return err
				}
				_, _, err = sh.Ex.Call("cv.imwrite", framework.Str(path+".out"), blur[0].Value())
				return err
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if ex.CriticalPath() <= 0 {
		t.Fatal("critical path did not advance")
	}
	if ex.TotalWork() < ex.CriticalPath() {
		t.Fatal("total work below critical path")
	}
}
