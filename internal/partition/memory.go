package partition

import (
	"fmt"
	"sort"
	"sync"

	"freepart.dev/freepart/internal/vclock"
)

// trace is one session key's last known placement.
type trace struct {
	shard int             // shard slot the key last ran on
	gen   int             // that shard's generation (a replacement is cold)
	at    vclock.Duration // virtual time of the last touch
}

// PlacementMemory persists per-session placement history: which shard slot
// (and shard generation) each session key last ran on, so a returning
// session can be scored toward the shard whose simulated page cache still
// holds its working set. A nil *PlacementMemory is inert — every query
// answers "no history" and every update is a no-op — which is the zero-cost
// disabled configuration.
//
// The memory is deterministic and byte-replayable: state is a pure function
// of the Touch/Rehome/EvictRange call sequence, and Encode renders it in a
// canonical sorted form so two replays can be compared byte-for-byte.
type PlacementMemory struct {
	mu     sync.Mutex
	traces map[uint64]trace
	hits   uint64
	misses uint64
}

// NewMemory creates an empty placement memory.
func NewMemory() *PlacementMemory {
	return &PlacementMemory{traces: map[uint64]trace{}}
}

// WarmShard returns the shard slot and generation the key last ran on.
// ok is false when the memory is nil or has never seen the key.
func (pm *PlacementMemory) WarmShard(key uint64) (shard, gen int, ok bool) {
	if pm == nil {
		return -1, -1, false
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	t, ok := pm.traces[key]
	if !ok {
		return -1, -1, false
	}
	return t.shard, t.gen, true
}

// Touch records that key is now running on (shard, gen) at virtual time at,
// and reports whether the landing was warm — the key's previous trace named
// the same shard slot at the same generation. First sightings and
// generation changes (the shard was replaced, its cache is gone) are cold.
// Nil memories report cold without recording, so a disabled configuration
// never accumulates state.
func (pm *PlacementMemory) Touch(key uint64, shard, gen int, at vclock.Duration) (warm bool) {
	if pm == nil {
		return false
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	prev, seen := pm.traces[key]
	warm = seen && prev.shard == shard && prev.gen == gen
	if warm {
		pm.hits++
	} else {
		pm.misses++
	}
	pm.traces[key] = trace{shard: shard, gen: gen, at: at}
	return warm
}

// Rehome rewrites every trace pointing at shard from to point at shard to
// with generation gen, and returns how many keys moved. The rebalance drill
// uses it after migrating a partition's sessions so their next visit scores
// toward the new home. When keys is non-nil only those keys are rehomed.
func (pm *PlacementMemory) Rehome(from, to, gen int, keys map[uint64]bool) int {
	if pm == nil {
		return 0
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	moved := 0
	for k, t := range pm.traces {
		if t.shard != from {
			continue
		}
		if keys != nil && !keys[k] {
			continue
		}
		t.shard, t.gen = to, gen
		pm.traces[k] = t
		moved++
	}
	return moved
}

// EvictRange forgets every trace whose key is in [lo, hi) except traces
// already pointing at shard slot keep. A rebalance that moves a range to a
// new owner calls this after migrating the range's live sessions: the old
// owner's cache claim over the range is revoked, so the next visit of every
// non-migrated key follows the new partition preference (one cold landing,
// warm thereafter) instead of a stale trace steering it back to the shard
// the range just left. Returns how many keys cooled.
func (pm *PlacementMemory) EvictRange(lo, hi uint64, keep int) int {
	if pm == nil {
		return 0
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	n := 0
	for k, t := range pm.traces {
		if k >= lo && k < hi && t.shard != keep {
			delete(pm.traces, k)
			n++
		}
	}
	return n
}

// Stats returns the cumulative warm-hit and cold-miss counts.
func (pm *PlacementMemory) Stats() (hits, misses uint64) {
	if pm == nil {
		return 0, 0
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.hits, pm.misses
}

// HitRatio returns hits / (hits + misses), or 0 before any touch.
func (pm *PlacementMemory) HitRatio() float64 {
	h, m := pm.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len returns the number of keys remembered.
func (pm *PlacementMemory) Len() int {
	if pm == nil {
		return 0
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return len(pm.traces)
}

// Encode renders the memory in a canonical byte form — keys in ascending
// order, one line each — so replay tests can compare two memories
// byte-for-byte. A nil memory encodes to nil.
func (pm *PlacementMemory) Encode() []byte {
	if pm == nil {
		return nil
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	keys := make([]uint64, 0, len(pm.traces))
	for k := range pm.traces {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := fmt.Sprintf("memory hits=%d misses=%d\n", pm.hits, pm.misses)
	for _, k := range keys {
		t := pm.traces[k]
		out += fmt.Sprintf("key %d shard=%d gen=%d at=%d\n", k, t.shard, t.gen, int64(t.at))
	}
	return []byte(out)
}
