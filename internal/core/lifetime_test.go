package core_test

import (
	"errors"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/isolation"
)

// TestUseAfterRelease releases a result on each isolation tier: the handle
// fails at the host on its next Call, Fetch and Release, the object is gone
// once its owner has heard, and the objects around it are untouched.
func TestUseAfterRelease(t *testing.T) {
	for _, pol := range []*isolation.Policy{isolation.Paper(), isolation.ERIM(), isolation.None()} {
		t.Run(pol.Name, func(t *testing.T) {
			k, rt := setup(t, core.ConfigForIsolation(pol))
			writeImage(k, "/in.img", 16, 16)
			img, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := rt.Call("cv.threshold", img[0].Value())
			if err != nil {
				t.Fatal(err)
			}
			want, err := rt.Fetch(out[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Release(out[0]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := rt.Call("cv.threshold", out[0].Value()); !errors.Is(err, core.ErrReleased) {
				t.Fatalf("Call with a released handle: %v, want ErrReleased", err)
			}
			if _, err := rt.Fetch(out[0]); !errors.Is(err, core.ErrReleased) {
				t.Fatalf("Fetch of a released handle: %v, want ErrReleased", err)
			}
			if err := rt.Release(out[0]); !errors.Is(err, core.ErrReleased) {
				t.Fatalf("second Release: %v, want ErrReleased", err)
			}
			// The next call reaches the owner on every tier.
			again, _, err := rt.Call("cv.threshold", img[0].Value())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := rt.Locate(out[0]); ok {
				t.Fatal("the released object outlived its owner's next call")
			}
			if got, err := rt.Fetch(again[0]); err != nil || string(got) != string(want) {
				t.Fatalf("the image's next result = %v, %v; want the first one's bytes", got, err)
			}
		})
	}
}

// TestFinishReleasesSessionObjects serves one request per session on a
// protected shard and finishes each: the shard's agents end where they
// began, while the model, loaded outside any session, keeps serving.
func TestFinishReleasesSessionObjects(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	ex, err := core.NewExecutor(1, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	sh := ex.Shard(0)
	writeImage(sh.K, "/in.img", 16, 16)
	serve := func() {
		t.Helper()
		s := ex.Session()
		if err := s.Do(func(sh *core.Shard) error {
			img, _, err := sh.Ex.Call("cv.imread", framework.Str("/in.img"))
			if err != nil {
				return err
			}
			_, _, err = sh.Ex.Call("cv.threshold", img[0].Value())
			return err
		}); err != nil {
			t.Fatal(err)
		}
		s.Finish()
	}
	pages := func() (n uint64) {
		for _, p := range sh.Rt.Agents() {
			n += p.Space().Stats().PagesMapped
		}
		return n
	}
	serve()
	serve() // the first session's release lists ride on these calls
	base := pages()
	for i := 0; i < 50; i++ {
		serve()
	}
	if got := pages(); got != base {
		t.Fatalf("agents map %d pages after 50 more sessions, want %d", got, base)
	}
	if st := ex.CheckpointLog().Stats(); st.Keys != 0 || st.Bytes != 0 {
		t.Fatalf("finished sessions left checkpoint state: %+v", st)
	}
}

// TestFinishAllocatesNothing pins Finish's cost where it has nothing to
// release: every session on a direct shard, and on a protected shard a
// session whose jobs created no object.
func TestFinishAllocatesNothing(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	for name, factory := range map[string]core.ShardFactory{
		"direct":    core.DirectShards(reg),
		"protected": core.ProtectedShards(reg, cat, core.Default()),
	} {
		t.Run(name, func(t *testing.T) {
			ex, err := core.NewExecutor(2, factory)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ex.Close)
			const runs = 20
			sessions := make([]*core.Session, runs+1)
			for i := range sessions {
				sessions[i] = ex.Session()
				job := func(*core.Shard) error { return nil }
				if name == "direct" {
					writeImage(ex.Shard(i%2).K, "/in.img", 8, 8)
					job = func(sh *core.Shard) error {
						_, _, err := sh.Ex.Call("cv.imread", framework.Str("/in.img"))
						return err
					}
				}
				if err := sessions[i].Do(job); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				sessions[next].Finish()
				next++
			})
			if allocs != 0 {
				t.Fatalf("Finish allocated %.1f times per session", allocs)
			}
		})
	}
}

// TestOpenFinishAllocs pins what a short session leaves behind in the
// executor: opening and finishing one allocates the Session alone, with no
// placement hook and with a hook consulted on every open.
func TestOpenFinishAllocs(t *testing.T) {
	for _, hook := range []bool{false, true} {
		name := "no hooks"
		if hook {
			name = "hook"
		}
		t.Run(name, func(t *testing.T) {
			ex, err := core.NewExecutor(8, core.DirectShards(all.Registry()))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ex.Close)
			if hook {
				ex.SetPlacement(func(session int, _ uint64, _ bool, pool []core.PlacementInfo) int {
					return pool[session%len(pool)].ID
				})
			}
			var k uint64
			allocs := testing.AllocsPerRun(1000, func() {
				k++
				ex.SessionKeyed(0, 1, k).Finish()
			})
			if allocs != 1 {
				t.Fatalf("open and Finish allocated %.2f times per session, want 1", allocs)
			}
		})
	}
}

// TestFinishedSessionRefusesWork submits work on a finished session whose
// shard was then killed: Do, Call and DoAt are each refused with
// ErrSessionFinished, no job runs, and no failover starts on the session's
// behalf, while a live session's DoAt still runs.
func TestFinishedSessionRefusesWork(t *testing.T) {
	ex, err := core.NewExecutor(2, core.DirectShards(all.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	ex.SetOnReplace(func(sh *core.Shard) error {
		writeImage(sh.K, "/in.img", 8, 8)
		return nil
	})
	s, live := ex.Session(), ex.Session()
	s.Finish()
	slot := s.Shard().ID
	ex.KillShard(slot, "test kill")

	ran, liveRan := 0, 0
	job := func(*core.Shard) error { ran++; return nil }
	if err := s.Do(job); !errors.Is(err, core.ErrSessionFinished) {
		t.Fatalf("Do on a finished session: %v, want ErrSessionFinished", err)
	}
	if _, _, err := s.Call("cv.imread", framework.Str("/in.img")); !errors.Is(err, core.ErrSessionFinished) {
		t.Fatalf("Call on a finished session: %v, want ErrSessionFinished", err)
	}
	if err := s.DoAt(0, job); !errors.Is(err, core.ErrSessionFinished) {
		t.Fatalf("DoAt on a finished session: %v, want ErrSessionFinished", err)
	}
	if err := live.DoAt(0, func(*core.Shard) error { liveRan++; return nil }); err != nil {
		t.Fatalf("DoAt on a live session: %v", err)
	}
	if ran != 0 || liveRan != 1 {
		t.Fatalf("%d jobs of the finished session ran and %d of the live one, want 0 and 1", ran, liveRan)
	}
	if gen := ex.Shard(slot).Gen; gen != 0 {
		t.Fatalf("work on a finished session failed its shard over to gen %d", gen)
	}
}
