package core

import (
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/ipc"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/vclock"
)

// lifetimeRuntime builds a runtime under cfg with an image and a
// classifier model in its filesystem, and returns it with the image loaded.
func lifetimeRuntime(t *testing.T, cfg Config) (*Runtime, Handle) {
	t.Helper()
	k := kernel.New()
	reg := all.Registry()
	rt, err := New(k, reg, analysis.New(reg, nil).Categorize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	data := make([]byte, 16*16)
	for i := range data {
		data[i] = byte(i * 7 % 251)
	}
	enc, err := simcv.EncodeImage(16, 16, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	k.FS.WriteFile("/in.img", enc)
	k.FS.WriteFile("/model.xml", simcv.EncodeClassifier(150, 4))
	img, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatal(err)
	}
	return rt, img[0]
}

// mustCall runs one call that must succeed and return a handle.
func mustCall(t *testing.T, rt *Runtime, api string, args ...framework.Value) Handle {
	t.Helper()
	hs, _, err := rt.Call(api, args...)
	if err != nil {
		t.Fatalf("%s: %v", api, err)
	}
	return hs[0]
}

// TestReleasedObjectDoesNotSurviveRestart releases a checkpointed object,
// crashes its owner before the release list reaches it, and restarts it:
// the supervisor must not restore the object, and its checkpoint is gone.
func TestReleasedObjectDoesNotSurviveRestart(t *testing.T) {
	rt, img := lifetimeRuntime(t, Default())
	model := mustCall(t, rt, "cv.CascadeClassifier", framework.Str("/model.xml"))
	dets := mustCall(t, rt, "cv.CascadeClassifier.detectMultiScale", model.Value(), img.Value())
	proc := rt.agents[agentPartition(framework.TypeProcessing)]
	detsID := proc.resolveID(dets.ref.ID)
	proc.mu.Lock()
	_, checkpointed := proc.checkpoints[detsID]
	before := len(proc.checkpoints)
	proc.mu.Unlock()
	if !checkpointed {
		t.Fatal("the stateful API's result was not checkpointed")
	}

	if err := rt.Release(dets); err != nil {
		t.Fatal(err)
	}
	rt.K.Crash(proc.process(), "test crash")
	if err := rt.RestartDead(); err != nil {
		t.Fatal(err)
	}
	proc.mu.Lock()
	after := len(proc.checkpoints)
	for id := range proc.checkpoints {
		if proc.canon[id] == detsID {
			t.Errorf("restart restored the released object as id %d", id)
		}
	}
	proc.mu.Unlock()
	if after != before-1 {
		t.Fatalf("%d checkpoints after the restart, want %d: the released object's checkpoint must go", after, before-1)
	}
	if _, _, ok := rt.Locate(dets); ok {
		t.Fatal("released object is locatable after the restart")
	}
	// The rest of the agent's state came back, and the pending entry, now
	// naming nothing, is skipped when it rides on the next call.
	if _, _, err := rt.Call("cv.CascadeClassifier.detectMultiScale", model.Value(), img.Value()); err != nil {
		t.Fatalf("call after the restart: %v", err)
	}
	if n := len(proc.pendingReleases()); n != 0 {
		t.Fatalf("%d release entries still pending after a delivered call", n)
	}
}

// faultScript takes the fate of successive messages from a byte script,
// one byte per message: bit 0 drops, bit 1 duplicates, bit 2 corrupts,
// bit 3 stalls. An exhausted script delivers normally.
type faultScript struct{ script []byte }

func (s *faultScript) next() ipc.MessageFault {
	if len(s.script) == 0 {
		return ipc.MessageFault{}
	}
	b := s.script[0]
	s.script = s.script[1:]
	f := ipc.MessageFault{Drop: b&1 != 0, Duplicate: b&2 != 0, Corrupt: b&4 != 0}
	if b&8 != 0 {
		f.Stall = vclock.Duration(b)
	}
	return f
}

func (s *faultScript) RequestFault(uint64, []byte) ipc.MessageFault  { return s.next() }
func (s *faultScript) ResponseFault(uint64, []byte) ipc.MessageFault { return s.next() }

// maxScript bounds the fault script; every failed attempt consumes at
// least one byte, so a retry budget above it always reaches a clean one.
const maxScript = 32

// FuzzReleaseListExactlyOnce is the release-list row beside
// ipc.FuzzConnExactlyOnce: the call carrying a release list is dropped,
// duplicated, corrupted or stalled per a fault script and retried under its
// sequence number. Whatever the faults, the list takes effect once: the
// released object is gone, its page is the one the call's new result
// reuses, and nothing stays pending.
func FuzzReleaseListExactlyOnce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0, 1})
	f.Add([]byte{2})
	f.Add([]byte{4, 0})
	f.Add([]byte{0, 4})
	f.Add([]byte{2, 0, 1, 3, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > maxScript {
			script = script[:maxScript]
		}
		cfg := Default()
		cfg.RetryBudget = maxScript + 1
		rt, img := lifetimeRuntime(t, cfg)
		out := mustCall(t, rt, "cv.threshold", img.Value())
		proc := rt.agents[agentPartition(framework.TypeProcessing)]
		space := proc.process().Space()
		mapped := space.Stats().PagesMapped
		outID := proc.resolveID(out.ref.ID)
		_, outRegion, _ := rt.Locate(out)
		if err := rt.Release(out); err != nil {
			t.Fatal(err)
		}

		proc.conn.SetInjector(&faultScript{script: script})
		next := mustCall(t, rt, "cv.threshold", img.Value())
		proc.conn.SetInjector(nil)

		if _, ok := proc.context().Table.Get(outID); ok {
			t.Fatal("the released object is still in the agent's table")
		}
		if got := space.Stats().PagesMapped; got != mapped {
			t.Fatalf("%d pages mapped after the release and one new result, want %d", got, mapped)
		}
		if _, region, ok := rt.Locate(next); !ok || region.Base != outRegion.Base {
			t.Fatalf("new result at %#x, want the released object's page %#x", region.Base, outRegion.Base)
		}
		if n := len(proc.pendingReleases()); n != 0 {
			t.Fatalf("%d release entries pending after a delivered call", n)
		}
	})
}

// TestDegradedAgentQueuesNoReleases trips the processing partition's
// breaker, then serves sessions whose images pass through it in the host:
// the degraded agent takes no more calls, so no release may queue for it,
// and its pending list keeps the size it had when the breaker tripped.
func TestDegradedAgentQueuesNoReleases(t *testing.T) {
	cfg := Default()
	cfg.BreakerThreshold = 1
	rt, img := lifetimeRuntime(t, cfg)
	proc := rt.agents[agentPartition(framework.TypeProcessing)]
	if err := rt.Release(mustCall(t, rt, "cv.threshold", img.Value())); err != nil {
		t.Fatal(err)
	}
	rt.K.Crash(proc.process(), "test crash")
	if err := rt.RestartDead(); err != nil {
		t.Fatal(err)
	}
	if !proc.isDegraded() {
		t.Fatal("the breaker did not degrade the processing partition")
	}
	tripped := len(proc.pendingReleases())
	for s := 0; s < 50; s++ {
		rt.SetSessionScope(s)
		in := mustCall(t, rt, "cv.imread", framework.Str("/in.img"))
		mustCall(t, rt, "cv.threshold", in.Value())
		rt.SetSessionScope(-1)
		rt.finishSession(s)
		if n := len(proc.pendingReleases()); n != tripped {
			t.Fatalf("session %d: %d entries pending for the degraded agent, want %d", s, n, tripped)
		}
	}
}

// TestSessionTableHoldsLiveSessions opens 100 sessions on 3 direct shards
// and finishes all but 5: the table keeps the 5, ids and round-robin slots
// keep counting opens, a finished id answers as an unknown one, and a
// failover migrates only the live sessions pinned to the lost shard, in id
// order.
func TestSessionTableHoldsLiveSessions(t *testing.T) {
	e, err := NewExecutor(3, DirectShards(all.Registry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	live := map[int]bool{3: true, 10: true, 40: true, 41: true, 97: true}
	sessions := make([]*Session, 100)
	for i := range sessions {
		sessions[i] = e.SessionKeyed(2, 1, uint64(1000+i))
	}
	for i, s := range sessions {
		if !live[i] {
			s.Finish()
		}
	}

	if n := len(e.sessions); n != 5 {
		t.Fatalf("table holds %d sessions, want 5", n)
	}
	next := e.Session()
	if next.ID != 100 || next.Shard().ID != 100%3 {
		t.Fatalf("next open got id %d on slot %d, want id 100 on slot %d", next.ID, next.Shard().ID, 100%3)
	}
	next.Finish()
	if sh := e.SessionShard(0); sh != nil {
		t.Errorf("SessionShard of a finished id = shard %d, want nil", sh.ID)
	}
	if key, keyed := e.SessionKey(0); key != 0 || keyed {
		t.Errorf("SessionKey of a finished id = (%d, %v), want (0, false)", key, keyed)
	}
	if tenant := e.TenantOf(0); tenant != 0 {
		t.Errorf("TenantOf a finished id = %d, want 0", tenant)
	}
	if err := e.MigrateSession(0, 1, 0); err != nil {
		t.Errorf("MigrateSession of a finished id: %v, want nil", err)
	}
	if key, keyed := e.SessionKey(40); key != 1040 || !keyed || e.TenantOf(40) != 2 {
		t.Errorf("live session 40: key (%d, %v), tenant %d; want (1040, true), tenant 2", key, keyed, e.TenantOf(40))
	}
	if got, want := e.KeyedSessionsIn(0, 2000), []int{3, 10, 40, 41, 97}; !reflect.DeepEqual(got, want) {
		t.Errorf("KeyedSessionsIn = %v, want %v", got, want)
	}
	if got, want := e.PinnedSessions(1), []int{10, 40, 97}; !reflect.DeepEqual(got, want) {
		t.Errorf("PinnedSessions(1) = %v, want %v", got, want)
	}

	e.KillShard(1, "test kill")
	if err := sessions[10].Do(func(*Shard) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var migrated []string
	for _, ev := range e.Events() {
		if ev.Kind == "migrate" {
			migrated = append(migrated, ev.Detail)
		}
	}
	if want := []string{"session 10", "session 40", "session 97"}; !reflect.DeepEqual(migrated, want) {
		t.Fatalf("failover migrated %q, want %q", migrated, want)
	}
}

// TestTransitionReusesDefinedList: a transition seals what was defined in
// the state it leaves and hands that state's list back cleared, so the
// objects recorded when the pipeline re-enters the state go into the same
// array. A loading → processing → loading round that defines one host
// object in each state seals both, one permission flip each, and
// allocates nothing.
func TestTransitionReusesDefinedList(t *testing.T) {
	rt, _ := lifetimeRuntime(t, Default())
	space := rt.Host.Space()
	var regions [2]mem.Region
	for i := range regions {
		r, err := space.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		regions[i] = r
	}
	round := func() {
		rt.transition(framework.TypeProcessing)
		rt.RegisterCritical(regions[0])
		rt.transition(framework.TypeLoading)
		rt.RegisterCritical(regions[1])
	}
	round()
	flips := rt.Metrics.Snapshot().PermFlips
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("a transition round made %.0f allocs, want 0", allocs)
	}
	if got := rt.Metrics.Snapshot().PermFlips - flips; got != 2*11 {
		t.Fatalf("11 rounds made %d permission flips, want %d", got, 2*11)
	}
	rt.transition(framework.TypeProcessing)
	for _, r := range regions {
		if perm, _ := space.PermAt(r.Base); perm.CanWrite() {
			t.Fatalf("region %#x still writable after its state was left", uint64(r.Base))
		}
	}
}
