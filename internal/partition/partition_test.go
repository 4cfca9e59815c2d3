package partition

import (
	"bytes"
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/vclock"
)

func TestNewRangeTilesKeySpace(t *testing.T) {
	m := New(Range, 4, 1000)
	if len(m.Parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(m.Parts))
	}
	if m.Parts[0].Lo != 0 || m.Parts[3].Hi != 1000 {
		t.Fatalf("range meta does not tile [0,1000): %+v", m.Parts)
	}
	for i := 1; i < 4; i++ {
		if m.Parts[i].Lo != m.Parts[i-1].Hi {
			t.Fatalf("gap between partitions %d and %d", i-1, i)
		}
	}
	for key := uint64(0); key < 1000; key += 7 {
		p := m.PartitionOf(key)
		if p < 0 || key < m.Parts[p].Lo || key >= m.Parts[p].Hi {
			t.Fatalf("key %d mapped to partition %d [%d,%d)", key, p, m.Parts[p].Lo, m.Parts[p].Hi)
		}
	}
}

func TestHashPartitionOf(t *testing.T) {
	m := New(Hash, 3, 100)
	for key := uint64(0); key < 30; key++ {
		if got, want := m.PartitionOf(key), int(key%3); got != want {
			t.Fatalf("PartitionOf(%d) = %d, want %d", key, got, want)
		}
	}
}

func TestPreferAndRecord(t *testing.T) {
	m := New(Range, 2, 100)
	m.Prefer(1, 5)
	if got := m.Preferred(75); got != 5 {
		t.Fatalf("Preferred(75) = %d, want 5", got)
	}
	if got := m.Preferred(10); got != -1 {
		t.Fatalf("Preferred(10) = %d, want -1 (unset)", got)
	}
	m.Record(75, 4096, "detect")
	m.Record(75, 4096, "detect")
	m.Record(75, 1024, "grade")
	p := m.Parts[1]
	if p.Bytes != 9216 || p.Sessions != 3 || p.Classes["detect"] != 2 || p.Classes["grade"] != 1 {
		t.Fatalf("record accumulation wrong: %+v", p)
	}
}

func TestSplit(t *testing.T) {
	m := New(Range, 2, 100)
	m.Prefer(0, 1)
	newID := m.Split(0, 7)
	if newID < 0 {
		t.Fatal("split declined")
	}
	if len(m.Parts) != 3 {
		t.Fatalf("parts = %d after split, want 3", len(m.Parts))
	}
	// [0,25) stays preferred at 1; [25,50) moves to 7; [50,100) untouched.
	if got := m.Preferred(10); got != 1 {
		t.Fatalf("lower half preferred = %d, want 1", got)
	}
	if got := m.Preferred(30); got != 7 {
		t.Fatalf("split-off half preferred = %d, want 7", got)
	}
	if got := m.Preferred(60); got != -1 {
		t.Fatalf("untouched partition preferred = %d, want -1", got)
	}
	// IDs re-densified in Lo order and the key space still tiles.
	for i, p := range m.Parts {
		if p.ID != i {
			t.Fatalf("partition %d has ID %d after split", i, p.ID)
		}
		if i > 0 && p.Lo != m.Parts[i-1].Hi {
			t.Fatalf("gap after split between %d and %d", i-1, i)
		}
	}
	// Hash metas and 1-wide ranges decline.
	if id := New(Hash, 2, 100).Split(0, 0); id != -1 {
		t.Fatalf("hash split returned %d, want -1", id)
	}
	narrow := New(Range, 1, 1)
	if id := narrow.Split(0, 0); id != -1 {
		t.Fatalf("width-1 split returned %d, want -1", id)
	}
}

func TestMetaEncodeCanonical(t *testing.T) {
	build := func() *Meta {
		m := New(Range, 3, 300)
		m.Prefer(1, 2)
		m.Record(50, 100, "zeta")
		m.Record(50, 100, "alpha")
		m.Record(250, 7, "beta")
		return m
	}
	if !bytes.Equal(build().Encode(), build().Encode()) {
		t.Fatal("identical construction sequences encode differently")
	}
}

func TestNilMetaSafe(t *testing.T) {
	var m *Meta
	if m.PartitionOf(5) != -1 || m.Preferred(5) != -1 {
		t.Fatal("nil meta should answer no-partition")
	}
	m.Prefer(0, 0)
	m.Record(0, 1, "x")
	if m.Split(0, 0) != -1 {
		t.Fatal("nil meta split should decline")
	}
	if m.Encode() != nil {
		t.Fatal("nil meta should encode to nil")
	}
}

func TestPlacementMemoryWarmCold(t *testing.T) {
	pm := NewMemory()
	if warm := pm.Touch(7, 2, 0, 100); warm {
		t.Fatal("first sighting must be cold")
	}
	if warm := pm.Touch(7, 2, 0, 200); !warm {
		t.Fatal("same shard+gen revisit must be warm")
	}
	if warm := pm.Touch(7, 3, 0, 300); warm {
		t.Fatal("different shard must be cold")
	}
	if warm := pm.Touch(7, 3, 1, 400); warm {
		t.Fatal("same shard at a new generation must be cold (cache died with the process)")
	}
	h, m := pm.Stats()
	if h != 1 || m != 3 {
		t.Fatalf("stats = %d/%d, want 1 hit / 3 misses", h, m)
	}
	if r := pm.HitRatio(); r != 0.25 {
		t.Fatalf("hit ratio = %v, want 0.25", r)
	}
}

func TestPlacementMemoryWarmShard(t *testing.T) {
	pm := NewMemory()
	if _, _, ok := pm.WarmShard(9); ok {
		t.Fatal("unseen key should have no warm shard")
	}
	pm.Touch(9, 4, 2, 50)
	shard, gen, ok := pm.WarmShard(9)
	if !ok || shard != 4 || gen != 2 {
		t.Fatalf("WarmShard = (%d,%d,%v), want (4,2,true)", shard, gen, ok)
	}
}

func TestPlacementMemoryRehomeAndEvict(t *testing.T) {
	pm := NewMemory()
	pm.Touch(1, 0, 0, 0)
	pm.Touch(2, 0, 0, 0)
	pm.Touch(3, 5, 0, 0)
	if n := pm.Rehome(0, 6, 1, map[uint64]bool{2: true}); n != 1 {
		t.Fatalf("selective rehome moved %d keys, want 1", n)
	}
	if shard, gen, _ := pm.WarmShard(2); shard != 6 || gen != 1 {
		t.Fatalf("key 2 rehomed to (%d,%d), want (6,1)", shard, gen)
	}
	if shard, _, _ := pm.WarmShard(1); shard != 0 {
		t.Fatalf("key 1 moved unexpectedly to shard %d", shard)
	}
	if n := pm.Rehome(5, 7, 0, nil); n != 1 {
		t.Fatalf("full rehome moved %d keys, want 1", n)
	}
	if n := pm.EvictRange(2, 3, -1); n != 1 {
		t.Fatalf("evict cooled %d keys, want 1", n)
	}
	if _, _, ok := pm.WarmShard(2); ok {
		t.Fatal("evicted key still warm")
	}
	if pm.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pm.Len())
	}
}

func TestPlacementMemoryEncodeReplay(t *testing.T) {
	build := func() *PlacementMemory {
		pm := NewMemory()
		for k := uint64(0); k < 64; k++ {
			pm.Touch(k*37%64, int(k%4), int(k%2), vclock.Duration(k))
		}
		pm.Rehome(1, 2, 3, nil)
		pm.EvictRange(16, 48, 1)
		return pm
	}
	a, b := build().Encode(), build().Encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical update sequences encode differently:\n%s\n%s", a, b)
	}
}

func TestNilPlacementMemoryInert(t *testing.T) {
	var pm *PlacementMemory
	if pm.Touch(1, 2, 3, 4) {
		t.Fatal("nil memory reported warm")
	}
	if _, _, ok := pm.WarmShard(1); ok {
		t.Fatal("nil memory has a warm shard")
	}
	if pm.Rehome(0, 1, 0, nil) != 0 || pm.EvictRange(0, 1, 0) != 0 || pm.Len() != 0 {
		t.Fatal("nil memory mutated")
	}
	h, m := pm.Stats()
	if h != 0 || m != 0 || pm.HitRatio() != 0 || pm.Encode() != nil {
		t.Fatal("nil memory should be all-zero")
	}
}

func TestEncodeOrderIndependence(t *testing.T) {
	// Two different insertion orders with the same final state encode
	// identically — the canonical form is sorted, not insertion-ordered.
	a := NewMemory()
	a.Touch(1, 0, 0, 10)
	a.Touch(2, 1, 0, 20)
	b := NewMemory()
	b.Touch(2, 1, 0, 20)
	b.Touch(1, 0, 0, 10)
	// Hit/miss counters match (both all-cold), traces match.
	if !reflect.DeepEqual(a.Encode(), b.Encode()) {
		t.Fatalf("insertion order leaked into encoding:\n%s\n%s", a.Encode(), b.Encode())
	}
}

func TestSplitAtExplicitKey(t *testing.T) {
	m := New(Range, 2, 100)
	m.Prefer(0, 0)
	// Load concentrates at the low end: split at the observed median, not
	// the key midpoint.
	id := m.SplitAt(0, 7, 3)
	if id != 1 {
		t.Fatalf("SplitAt returned id %d, want 1", id)
	}
	if m.Parts[0].Hi != 7 || m.Parts[1].Lo != 7 || m.Parts[1].Hi != 50 {
		t.Fatalf("split intervals wrong: %+v", m.Parts[:2])
	}
	if m.Parts[1].Preferred != 3 || m.Parts[0].Preferred != 0 {
		t.Fatalf("preferences wrong after SplitAt: %+v", m.Parts[:2])
	}
	// Out-of-interval split points decline.
	if got := m.SplitAt(0, 0, 1); got != -1 {
		t.Fatalf("SplitAt at Lo should decline, got %d", got)
	}
	if got := m.SplitAt(0, 7, 1); got != -1 {
		t.Fatalf("SplitAt at Hi should decline, got %d", got)
	}
}

func TestEvictRangeKeepsNewOwner(t *testing.T) {
	pm := NewMemory()
	pm.Touch(5, 0, 0, 0)  // in range, old owner: must cool
	pm.Touch(6, 2, 0, 0)  // in range, already at new owner: stays warm
	pm.Touch(50, 0, 0, 0) // out of range: untouched
	if n := pm.EvictRange(0, 10, 2); n != 1 {
		t.Fatalf("EvictRange cooled %d keys, want 1", n)
	}
	if _, _, ok := pm.WarmShard(5); ok {
		t.Fatal("key 5 should have been evicted")
	}
	if sh, _, ok := pm.WarmShard(6); !ok || sh != 2 {
		t.Fatal("key 6 at the new owner should have survived")
	}
	if sh, _, ok := pm.WarmShard(50); !ok || sh != 0 {
		t.Fatal("key 50 outside the range should have survived")
	}
	var nilPM *PlacementMemory
	if n := nilPM.EvictRange(0, 10, 0); n != 0 {
		t.Fatal("nil memory EvictRange must be a no-op")
	}
}
