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
