package object

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"freepart.dev/freepart/internal/mem"
)

func TestCheckpointLogVersioning(t *testing.T) {
	l := NewCheckpointLog()
	key := CheckpointKey{Session: 3, Type: 2, Slot: Slot(4, 9)}

	l.Append(key, KindBlob, nil, []byte("v1"))
	l.Append(key, KindBlob, nil, []byte("v2"))

	cp, ok := l.Latest(key)
	if !ok {
		t.Fatal("latest not found")
	}
	if cp.Version != 2 || !bytes.Equal(cp.Payload, []byte("v2")) {
		t.Fatalf("latest = v%d %q, want v2 \"v2\"", cp.Version, cp.Payload)
	}
	st := l.Stats()
	if st.Appends != 2 || st.Keys != 1 {
		t.Fatalf("stats = %+v, want 2 appends over 1 key", st)
	}
}

func TestCheckpointLogCopiesPayload(t *testing.T) {
	l := NewCheckpointLog()
	key := CheckpointKey{Session: 1, Type: 1, Slot: Slot(2, 1)}
	buf := []byte("state")
	l.Append(key, KindBlob, nil, buf)
	buf[0] = 'X' // caller mutates its buffer after the append

	cp, _ := l.Latest(key)
	if !bytes.Equal(cp.Payload, []byte("state")) {
		t.Fatalf("log shares caller memory: %q", cp.Payload)
	}
	// And the returned copy must not alias the log's internal storage.
	cp.Payload[0] = 'Y'
	cp2, _ := l.Latest(key)
	if !bytes.Equal(cp2.Payload, []byte("state")) {
		t.Fatalf("returned checkpoint aliases log storage: %q", cp2.Payload)
	}
}

func TestCheckpointLogLatestSlot(t *testing.T) {
	l := NewCheckpointLog()
	l.Append(CheckpointKey{Session: 1, Type: 2, Slot: Slot(4, 7)}, KindBlob, nil, []byte("a"))
	l.Append(CheckpointKey{Session: 2, Type: 2, Slot: Slot(4, 7)}, KindBlob, nil, []byte("b"))

	cp, ok := l.LatestSlot(1, Slot(4, 7))
	if !ok || !bytes.Equal(cp.Payload, []byte("a")) {
		t.Fatalf("LatestSlot crossed sessions: ok=%v payload=%q", ok, cp.Payload)
	}
	if _, ok := l.LatestSlot(1, Slot(4, 8)); ok {
		t.Fatal("found a checkpoint for a slot never written")
	}
}

func TestCheckpointLogSessionOrdering(t *testing.T) {
	l := NewCheckpointLog()
	l.Append(CheckpointKey{Session: 5, Type: 3, Slot: Slot(6, 2)}, KindBlob, nil, []byte("x"))
	l.Append(CheckpointKey{Session: 5, Type: 1, Slot: Slot(2, 9)}, KindBlob, nil, []byte("y"))
	l.Append(CheckpointKey{Session: 5, Type: 1, Slot: Slot(2, 4)}, KindBlob, nil, []byte("z"))
	l.Append(CheckpointKey{Session: 6, Type: 1, Slot: Slot(2, 4)}, KindBlob, nil, []byte("other"))

	got := l.Session(5)
	if len(got) != 3 {
		t.Fatalf("session 5 has %d checkpoints, want 3", len(got))
	}
	// Sorted by type, then slot — a deterministic materialization order.
	if got[0].Key.Slot != Slot(2, 4) || got[1].Key.Slot != Slot(2, 9) || got[2].Key.Type != 3 {
		t.Fatalf("session order = %v", []CheckpointKey{got[0].Key, got[1].Key, got[2].Key})
	}
}

func TestCheckpointLogCompactBoundedMemory(t *testing.T) {
	// A long-running stateful service checkpoints every stateful call, so
	// version history grows without bound unless compaction holds retained
	// versions at one per live key. Simulate many update rounds over a
	// fixed key set, compacting periodically the way the control plane
	// does after each migration wave.
	l := NewCheckpointLog()
	keys := make([]CheckpointKey, 8)
	for i := range keys {
		keys[i] = CheckpointKey{Session: i % 4, Type: 2, Slot: Slot(3, uint64(i))}
	}
	for round := 0; round < 100; round++ {
		for _, k := range keys {
			l.Append(k, KindBlob, nil, []byte{byte(round), byte(k.Session)})
		}
		if round%10 == 9 {
			st := l.Compact()
			if st.Kept != len(keys) {
				t.Fatalf("round %d: kept %d versions, want %d", round, st.Kept, len(keys))
			}
			if got := l.Len(); got != len(keys) {
				t.Fatalf("round %d: log retains %d versions after compaction, want %d", round, got, len(keys))
			}
		}
	}
	// Compaction must never lose the newest version.
	for _, k := range keys {
		cp, ok := l.Latest(k)
		if !ok || cp.Payload[0] != 99 {
			t.Fatalf("key %v: latest after compaction = %v %v, want round-99 payload", k, ok, cp.Payload)
		}
	}
	// An already-compact log is a no-op pass.
	if st := l.Compact(); st.Retired != 0 {
		t.Fatalf("second compaction retired %d versions, want 0", st.Retired)
	}
	st := l.Stats()
	if st.Appends != 800 || st.Retired == 0 {
		t.Fatalf("stats = %+v, want 800 appends and a nonzero retire count", st)
	}
}

func TestCheckpointMaterialize(t *testing.T) {
	l := NewCheckpointLog()
	key := CheckpointKey{Session: 0, Type: 2, Slot: Slot(3, 1)}
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

	cp, _ := l.Latest(key)
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

func TestCheckpointLogCompactDuringMigrationWave(t *testing.T) {
	// Compaction racing a live migration wave: writer goroutines keep
	// checkpointing session state (the shards still serving), reader
	// goroutines adopt latest checkpoints (the sessions mid-migration), and
	// the control plane compacts concurrently throughout. At every moment a
	// reader must see a complete, newest-at-read-time version of its key,
	// and the log must stay bounded after the final pass. Run under -race
	// in CI via the partition soak gate.
	l := NewCheckpointLog()
	const sessions, rounds = 16, 50
	keys := make([]CheckpointKey, sessions)
	for i := range keys {
		keys[i] = CheckpointKey{Session: i, Type: 1, Slot: Slot(2, uint64(i))}
		l.Append(keys[i], KindBlob, nil, []byte{0, byte(i)})
	}

	var wg sync.WaitGroup
	// Writers: each session's shard appends new versions through the wave.
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
	// The control plane: compact after "each migration wave", concurrently
	// with both.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := 0; p < 20; p++ {
			l.Compact()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Bounded memory: the final pass holds one retained version per key.
	l.Compact()
	if got := l.Len(); got != sessions {
		t.Fatalf("log retains %d versions after the wave, want %d", got, sessions)
	}
	// And the newest version per key survived every concurrent pass.
	for i, k := range keys {
		cp, ok := l.Latest(k)
		if !ok || cp.Payload[0] != rounds || cp.Payload[1] != byte(i) {
			t.Fatalf("key %d: latest = %v %v, want round-%d payload", i, ok, cp.Payload, rounds)
		}
	}
}

// TestCheckpointLogDropSession finishes many sessions, each with superseded
// and latest versions over several keys, while one session stays live: the
// finished ones leave nothing behind, and the live one reads as before.
func TestCheckpointLogDropSession(t *testing.T) {
	l := NewCheckpointLog()
	const live = -7
	liveKey := CheckpointKey{Session: live, Type: 1, Slot: Slot(3, 1)}
	l.Append(liveKey, KindBlob, nil, []byte("live-v1"))
	l.Append(liveKey, KindBlob, []byte{1}, []byte("live-v2"))
	before, ok := l.LatestSlot(live, liveKey.Slot)
	if !ok {
		t.Fatal("live session has no state")
	}
	for s := 0; s < 100; s++ {
		for slot := uint64(0); slot < 3; slot++ {
			key := CheckpointKey{Session: s, Type: uint8(slot), Slot: Slot(4, slot)}
			l.Append(key, KindBlob, nil, []byte("old"))
			l.Append(key, KindBlob, nil, []byte("new"))
		}
		if got := l.Session(s); len(got) != 3 {
			t.Fatalf("session %d holds %d keys before its drop, want 3", s, len(got))
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
	if !ok || after.Version != before.Version || !bytes.Equal(after.Payload, before.Payload) || !bytes.Equal(after.Header, before.Header) {
		t.Fatalf("live session's state moved: %+v, want %+v", after, before)
	}
	st := l.Stats()
	if st.Keys != 1 || st.Bytes != uint64(len("live-v1")+len("live-v2")) || l.Len() != 2 {
		t.Fatalf("after the drops: %+v, %d versions; want only the live session's 1 key and 2 versions", st, l.Len())
	}
	l.DropSession(live)
	if st := l.Stats(); st.Keys != 0 || st.Bytes != 0 || l.Len() != 0 {
		t.Fatalf("after every session finished: %+v, %d versions; want 0 keys and 0 bytes", st, l.Len())
	}
	if c := l.Compact(); c.Retired != 0 {
		t.Fatalf("compaction after the drops retired %d versions", c.Retired)
	}
}
