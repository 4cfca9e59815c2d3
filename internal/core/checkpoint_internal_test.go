package core

import (
	"bytes"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/object"
)

// sameBytes reports whether two non-empty slices start at the same byte of
// memory: one snapshot, not two equal copies.
func sameBytes(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestCheckpointSharesUnchangedSnapshot: two checkpoints of a stateful
// object that nobody wrote in between hand the restart map and the portable
// log the same payload slice, the one the object's mapping keeps, and both
// still charge CheckpointCost on the full length. A Store between two
// checkpoints gives a fresh slice, and the earlier snapshot keeps its
// bytes. A restart restores the object from the shared slice.
func TestCheckpointSharesUnchangedSnapshot(t *testing.T) {
	rt, _ := lifetimeRuntime(t, Default())
	log := object.NewCheckpointLog()
	rt.SetCheckpointLog(log)
	rt.SetSessionScope(1)
	a := rt.agents[agentPartition(framework.TypeProcessing)]
	api := rt.Reg.MustGet("cv.CascadeClassifier.detectMultiScale")
	state := bytes.Repeat([]byte("state"), 1000)
	id, blob, err := a.ctx.NewBlob(state)
	if err != nil {
		t.Fatal(err)
	}
	args := []framework.Value{framework.Obj(id)}

	// checkpoint runs one checkpoint of the blob and returns the restart
	// map's payload, requiring the full-length charge and one more log
	// append, which leaves the log at one key of the full length.
	checkpoint := func(step string) []byte {
		t.Helper()
		before, appends := rt.K.Clock.Now(), log.Stats().Appends
		rt.checkpointObjects(a, a.ctx, api, args, nil)
		if got, want := rt.K.Clock.Now()-before, rt.K.Cost.CheckpointCost(len(state)); got != want {
			t.Fatalf("%s: checkpoint charged %v, want CheckpointCost(%d) = %v", step, got, len(state), want)
		}
		st := log.Stats()
		if st.Appends != appends+1 || st.Keys != 1 || st.Bytes != uint64(len(state)) {
			t.Fatalf("%s: log at %d appends, %d keys and %d bytes, want %d, 1 and %d", step, st.Appends, st.Keys, st.Bytes, appends+1, len(state))
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.checkpoints[id].payload
	}
	// logShares reports whether the log's checkpoint is p itself: a byte
	// flipped in p shows through the log's copy-out.
	logShares := func(p []byte) bool {
		t.Helper()
		p[0] ^= 0xff
		defer func() { p[0] ^= 0xff }()
		cp, ok := log.LatestSlot(1, object.Slot(uint32(a.process().PID()), a.canonOf(id)))
		if !ok {
			t.Fatal("the log holds no checkpoint for the blob")
		}
		return bytes.Equal(cp.Payload, p)
	}

	first := checkpoint("first")
	second := checkpoint("second")
	if !sameBytes(first, second) {
		t.Fatal("an unchanged object was copied again for its second checkpoint")
	}
	if !logShares(second) {
		t.Fatal("the log does not hold the restart map's snapshot")
	}
	if snap, err := object.Snapshot(blob); err != nil || !sameBytes(snap, second) {
		t.Fatalf("the object's mapping does not keep the checkpoint's snapshot (err %v)", err)
	}

	if err := a.ctx.P.Space().Store(blob.Region().Base, []byte("STATE")); err != nil {
		t.Fatal(err)
	}
	third := checkpoint("after a store")
	if sameBytes(third, second) {
		t.Fatal("a checkpoint after a Store reused the stale snapshot")
	}
	if !bytes.HasPrefix(third, []byte("STATEstate")) || !bytes.Equal(second, state) {
		t.Fatalf("snapshots after a store: new %q..., earlier %q...; the earlier one must keep its bytes", third[:10], second[:10])
	}
	if !logShares(third) {
		t.Fatal("the log does not hold the new snapshot")
	}

	rt.K.Crash(a.process(), "test crash")
	if err := rt.RestartDead(); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	newID, ok := a.remap[id]
	restored := a.checkpoints[newID].payload
	a.mu.Unlock()
	if !ok || !sameBytes(restored, third) {
		t.Fatalf("restart did not restore from the shared snapshot (remapped %v)", ok)
	}
	o, ok := a.ctx.Table.Get(newID)
	if !ok {
		t.Fatal("restored object missing from the fresh table")
	}
	got, err := object.PayloadBytes(o)
	if err != nil || !bytes.Equal(got, third) {
		t.Fatalf("restored object holds other bytes than its checkpoint (err %v)", err)
	}
}

// TestCheckpointCopiesHeaderOnce: a checkpoint keeps a copy of the object's
// header, not the object's own header bytes, which would keep the object,
// and its address space, reachable from the restart map and the portable
// log. The copy is made at the object's first checkpoint and shared by the
// later ones.
func TestCheckpointCopiesHeaderOnce(t *testing.T) {
	rt, _ := lifetimeRuntime(t, Default())
	a := rt.agents[agentPartition(framework.TypeProcessing)]
	api := rt.Reg.MustGet("cv.CascadeClassifier.detectMultiScale")
	id, tensor, err := a.ctx.NewTensor(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	args := []framework.Value{framework.Obj(id)}
	header := func() []byte {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.checkpoints[id].header
	}
	rt.checkpointObjects(a, a.ctx, api, args, nil)
	first := header()
	if !bytes.Equal(first, tensor.Header()) || sameBytes(first, tensor.Header()) {
		t.Fatalf("checkpoint header %x: want a copy of the tensor's %x", first, tensor.Header())
	}
	rt.checkpointObjects(a, a.ctx, api, args, nil)
	if !sameBytes(header(), first) {
		t.Fatal("a second checkpoint of the object copied its header again")
	}
}
