package object

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"freepart.dev/freepart/internal/mem"
)

// TestCheckpointLogVersioning: a second append to a key replaces its
// checkpoint.
func TestCheckpointLogVersioning(t *testing.T) {
	l := NewCheckpointLog()
	key := CheckpointKey{Session: 3, Slot: Slot(4, 9)}

	l.Append(key, KindBlob, nil, []byte("v1"))
	l.Append(key, KindBlob, nil, []byte("v2"))

	cp, ok := l.LatestSlot(key.Session, key.Slot)
	if !ok {
		t.Fatal("latest not found")
	}
	if !bytes.Equal(cp.Payload, []byte("v2")) {
		t.Fatalf("latest = %q, want \"v2\"", cp.Payload)
	}
	st := l.Stats()
	if st.Appends != 2 || st.Keys != 1 {
		t.Fatalf("stats = %+v, want 2 appends over 1 key", st)
	}
}

func TestCheckpointLogCopiesPayload(t *testing.T) {
	l := NewCheckpointLog()
	key := CheckpointKey{Session: 1, Slot: Slot(2, 1)}
	buf := []byte("state")
	l.Append(key, KindBlob, nil, buf)
	buf[0] = 'X' // caller mutates its buffer after the append

	cp, _ := l.LatestSlot(key.Session, key.Slot)
	if !bytes.Equal(cp.Payload, []byte("state")) {
		t.Fatalf("log shares caller memory: %q", cp.Payload)
	}
	// And the returned copy must not alias the log's internal storage.
	cp.Payload[0] = 'Y'
	cp2, _ := l.LatestSlot(key.Session, key.Slot)
	if !bytes.Equal(cp2.Payload, []byte("state")) {
		t.Fatalf("returned checkpoint aliases log storage: %q", cp2.Payload)
	}
}

func TestCheckpointLogLatestSlot(t *testing.T) {
	l := NewCheckpointLog()
	l.Append(CheckpointKey{Session: 1, Slot: Slot(4, 7)}, KindBlob, nil, []byte("a"))
	l.Append(CheckpointKey{Session: 2, Slot: Slot(4, 7)}, KindBlob, nil, []byte("b"))

	cp, ok := l.LatestSlot(1, Slot(4, 7))
	if !ok || !bytes.Equal(cp.Payload, []byte("a")) {
		t.Fatalf("LatestSlot crossed sessions: ok=%v payload=%q", ok, cp.Payload)
	}
	if _, ok := l.LatestSlot(1, Slot(4, 8)); ok {
		t.Fatal("found a checkpoint for a slot never written")
	}
}

// TestCheckpointLogSessionOrdering: a session's checkpoints, written in
// any order and interleaved with another session's, sum to its own
// payload bytes in SessionBytes.
func TestCheckpointLogSessionOrdering(t *testing.T) {
	l := NewCheckpointLog()
	l.Append(CheckpointKey{Session: 5, Slot: Slot(6, 2)}, KindBlob, nil, []byte("x"))
	l.Append(CheckpointKey{Session: 5, Slot: Slot(2, 9)}, KindBlob, nil, []byte("yy"))
	l.Append(CheckpointKey{Session: 6, Slot: Slot(2, 4)}, KindBlob, nil, []byte("other"))
	l.Append(CheckpointKey{Session: 5, Slot: Slot(2, 4)}, KindBlob, nil, []byte("zzz"))

	if got := l.SessionBytes(5); got != 6 {
		t.Fatalf("session 5 holds %d bytes, want 6", got)
	}
	if got := l.SessionBytes(7); got != 0 {
		t.Fatalf("a session that never wrote holds %d bytes", got)
	}
}

// TestCheckpointLogCompactBoundedMemory: a long-running stateful service
// checkpoints every stateful call, and the log stays compact without any
// pass over it: many update rounds over a fixed key set leave one
// checkpoint per key, the newest.
func TestCheckpointLogCompactBoundedMemory(t *testing.T) {
	l := NewCheckpointLog()
	keys := make([]CheckpointKey, 8)
	for i := range keys {
		keys[i] = CheckpointKey{Session: i % 4, Slot: Slot(3, uint64(i))}
	}
	for round := 0; round < 100; round++ {
		for _, k := range keys {
			l.Append(k, KindBlob, nil, []byte{byte(round), byte(k.Session)})
		}
		if st := l.Stats(); st.Keys != len(keys) || st.Bytes != uint64(2*len(keys)) {
			t.Fatalf("round %d: log holds %d keys and %d bytes, want %d and %d", round, st.Keys, st.Bytes, len(keys), 2*len(keys))
		}
	}
	for _, k := range keys {
		cp, ok := l.LatestSlot(k.Session, k.Slot)
		if !ok || cp.Payload[0] != 99 {
			t.Fatalf("key %v: latest = %v %v, want round-99 payload", k, ok, cp.Payload)
		}
	}
	if st := l.Stats(); st.Appends != 800 {
		t.Fatalf("stats = %+v, want 800 appends", st)
	}
}

// TestCheckpointLogOneCheckpointPerKey pins the one-checkpoint rule: after
// many appends to one key the log holds one key of the last payload's
// length, an append to an existing key allocates nothing, and neither do a
// session's appends to new keys plus its DropSession once the log's map
// has grown to hold them.
func TestCheckpointLogOneCheckpointPerKey(t *testing.T) {
	l := NewCheckpointLog()
	key := CheckpointKey{Session: 1, Slot: Slot(2, 3)}
	payloads := [][]byte{[]byte("first"), []byte("second!"), []byte("3rd")}
	for i := 0; i < 30; i++ {
		l.AppendOwned(Checkpoint{Key: key, Kind: KindBlob, Payload: payloads[i%len(payloads)]})
	}
	if st := l.Stats(); st.Keys != 1 || st.Bytes != uint64(len("3rd")) || st.Appends != 30 {
		t.Fatalf("after 30 appends to one key: %+v, want 1 key of %d bytes", st, len("3rd"))
	}
	cp := Checkpoint{Key: key, Kind: KindBlob, Payload: payloads[0]}
	if allocs := testing.AllocsPerRun(100, func() { l.AppendOwned(cp) }); allocs != 0 {
		t.Fatalf("an append to an existing key allocated %.1f times, want 0", allocs)
	}
	session := 7
	allocs := testing.AllocsPerRun(100, func() {
		for slot := uint64(0); slot < 3; slot++ {
			l.AppendOwned(Checkpoint{Key: CheckpointKey{Session: session, Slot: Slot(4, slot)}, Kind: KindBlob, Payload: payloads[slot]})
		}
		l.DropSession(session)
		session++
	})
	if allocs != 0 {
		t.Fatalf("a session's three appends and its drop allocated %.1f times, want 0", allocs)
	}
	if st := l.Stats(); st.Keys != 1 {
		t.Fatalf("dropped sessions left %d keys, want the first session's 1", st.Keys)
	}
}

func TestCheckpointMaterialize(t *testing.T) {
	l := NewCheckpointLog()
	key := CheckpointKey{Session: 0, Slot: Slot(3, 1)}
	src := mem.NewSpace()
	orig, err := NewBlob(src, []byte("payload-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PayloadBytes(orig)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(key, orig.Kind(), orig.Header(), pl)

	cp, _ := l.LatestSlot(key.Session, key.Slot)
	dst := mem.NewSpace()
	o, err := cp.Materialize(dst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PayloadBytes(o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pl) {
		t.Fatalf("materialized payload = %q, want %q", got, pl)
	}
}

// TestCheckpointLogConcurrentAppendsAndAdoptions races appends against
// adoptions, as in a live migration wave: writer goroutines keep
// checkpointing session state (the shards still serving) while reader
// goroutines adopt the latest checkpoints (the sessions mid-migration). At
// every moment a reader must see a complete checkpoint of its key, never
// older than one it read before, and the log ends with one checkpoint per
// key. CI's repeated race step runs it ten times.
func TestCheckpointLogConcurrentAppendsAndAdoptions(t *testing.T) {
	l := NewCheckpointLog()
	const sessions, rounds = 16, 50
	keys := make([]CheckpointKey, sessions)
	for i := range keys {
		keys[i] = CheckpointKey{Session: i, Slot: Slot(2, uint64(i))}
		l.Append(keys[i], KindBlob, nil, []byte{0, byte(i)})
	}

	var wg sync.WaitGroup
	// Writers: each session's shard appends new checkpoints through the wave.
	for i := range keys {
		wg.Add(1)
		go func(k CheckpointKey, id int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				l.Append(k, KindBlob, nil, []byte{byte(r), byte(id)})
			}
		}(keys[i], i)
	}
	// Readers: the migration wave adopts each session's latest repeatedly.
	errs := make(chan error, sessions)
	for i := range keys {
		wg.Add(1)
		go func(k CheckpointKey, id int) {
			defer wg.Done()
			prev := -1
			for r := 0; r < rounds; r++ {
				cp, ok := l.LatestSlot(k.Session, k.Slot)
				if !ok {
					errs <- fmt.Errorf("session %d: latest vanished mid-wave", id)
					return
				}
				if len(cp.Payload) != 2 || cp.Payload[1] != byte(id) {
					errs <- fmt.Errorf("session %d: torn or foreign payload %v", id, cp.Payload)
					return
				}
				if v := int(cp.Payload[0]); v < prev {
					errs <- fmt.Errorf("session %d: version went backwards %d -> %d", id, prev, v)
					return
				} else {
					prev = v
				}
			}
		}(keys[i], i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One checkpoint per key, the newest.
	if st := l.Stats(); st.Keys != sessions || st.Bytes != 2*sessions {
		t.Fatalf("log holds %d keys and %d bytes after the wave, want %d and %d", st.Keys, st.Bytes, sessions, 2*sessions)
	}
	for i, k := range keys {
		cp, ok := l.LatestSlot(k.Session, k.Slot)
		if !ok || cp.Payload[0] != rounds || cp.Payload[1] != byte(i) {
			t.Fatalf("key %d: latest = %v %v, want round-%d payload", i, ok, cp.Payload, rounds)
		}
	}
}

// TestCheckpointLogDropSession finishes many sessions, each with several
// keys written twice, while one session stays live: the finished ones leave
// nothing behind, and the live one reads as before.
func TestCheckpointLogDropSession(t *testing.T) {
	l := NewCheckpointLog()
	const live = -7
	liveKey := CheckpointKey{Session: live, Slot: Slot(3, 1)}
	l.Append(liveKey, KindBlob, nil, []byte("live-v1"))
	l.Append(liveKey, KindBlob, []byte{1}, []byte("live-v2"))
	before, ok := l.LatestSlot(live, liveKey.Slot)
	if !ok {
		t.Fatal("live session has no state")
	}
	for s := 0; s < 100; s++ {
		for slot := uint64(0); slot < 3; slot++ {
			key := CheckpointKey{Session: s, Slot: Slot(4, slot)}
			l.Append(key, KindBlob, nil, []byte("old"))
			l.Append(key, KindBlob, nil, []byte("new"))
		}
		if got := l.SessionBytes(s); got != 3*len("new") {
			t.Fatalf("session %d holds %d bytes before its drop, want 3 keys of %d", s, got, len("new"))
		}
		if allocs := testing.AllocsPerRun(1, func() { l.DropSession(s) }); allocs != 0 {
			t.Fatalf("DropSession allocated %.0f times", allocs)
		}
		if _, ok := l.LatestSlot(s, Slot(4, 0)); ok {
			t.Fatalf("session %d state survives its drop", s)
		}
	}
	l.DropSession(live + 1) // a session that never wrote: a no-op
	after, ok := l.LatestSlot(live, liveKey.Slot)
	if !ok || !bytes.Equal(after.Payload, before.Payload) || !bytes.Equal(after.Header, before.Header) {
		t.Fatalf("live session's state moved: %+v, want %+v", after, before)
	}
	st := l.Stats()
	if st.Keys != 1 || st.Bytes != uint64(len("live-v2")) {
		t.Fatalf("after the drops: %+v; want only the live session's 1 key of %d bytes", st, len("live-v2"))
	}
	l.DropSession(live)
	if st := l.Stats(); st.Keys != 0 || st.Bytes != 0 {
		t.Fatalf("after every session finished: %+v; want 0 keys and 0 bytes", st)
	}
}
