package object

import (
	"fmt"
	"sort"
	"sync"

	"freepart.dev/freepart/internal/mem"
)

// CheckpointKey identifies one durable piece of stateful-API state in a
// CheckpointLog: the serving session that owns it, the API type whose agent
// mutates it, and a slot naming the state object within the session (the
// owning agent's pid folded with the object's canonical table id, so two
// state objects held by different agents never collide).
type CheckpointKey struct {
	// Session is the serving-layer session id.
	Session int
	// Type is the API type (a framework.APIType value) whose partition owns
	// the state; migration materializes the checkpoint into the agent homing
	// this type on the destination shard.
	Type uint8
	// Slot names the state object inside the session.
	Slot uint64
}

// Slot folds an owning pid and canonical object id into a CheckpointKey slot.
func Slot(pid uint32, id uint64) uint64 { return uint64(pid)<<32 | id }

// Checkpoint is one immutable version of a key's state: enough to rebuild
// the object in any address space. Payloads are copy-on-write: nobody
// writes to the log's bytes, readers get copies, and a shard that
// materializes the checkpoint writes into its own space (Rebuild copies).
type Checkpoint struct {
	Key     CheckpointKey
	Version uint64
	Kind    Kind
	Header  []byte
	Payload []byte
}

// Materialize rebuilds the checkpointed object inside space. The log's
// backing bytes are copied, never aliased, so the caller's space owns its
// bytes and the log stays immutable.
func (c Checkpoint) Materialize(space *mem.AddressSpace) (Object, error) {
	return Rebuild(space, Ref{Kind: c.Kind, Header: c.Header}, c.Payload)
}

// CheckpointLogStats counts log activity.
type CheckpointLogStats struct {
	// Appends is how many versions were written.
	Appends uint64
	// Keys is how many distinct keys hold state.
	Keys int
	// Bytes is the total payload volume across all retained versions.
	Bytes uint64
	// Adoptions is how many checkpoints were read for cross-shard adoption.
	Adoptions uint64
	// Compactions is how many compaction passes ran; Retired is how many
	// superseded versions they dropped in total.
	Compactions uint64
	Retired     uint64
}

// CompactStats reports one compaction pass.
type CompactStats struct {
	// Retired is how many superseded versions this pass dropped.
	Retired int
	// Kept is how many versions remain (one per live key).
	Kept int
	// BytesFreed is the payload volume the retired versions held.
	BytesFreed uint64
}

// CheckpointLog is the portable, copy-on-write checkpoint store of the
// serving layer. Agent runtimes append stateful-API state here keyed by
// (session, API type, slot); because the log lives outside any shard's
// kernel, any shard can materialize a session's latest state into its own
// address space — the substrate of shard failover. Appends never mutate
// prior versions (each holds bytes nobody writes), so readers racing an
// append always observe a complete, consistent snapshot. Safe for
// concurrent use.
type CheckpointLog struct {
	mu       sync.Mutex
	latest   map[CheckpointKey]*version
	versions int // retained versions, superseded ones included

	appends     uint64
	bytes       uint64
	adoptions   uint64
	compactions uint64
	retired     uint64
}

// version is one retained version of a key; older points at the version it
// superseded, kept until a compaction retires it.
type version struct {
	Checkpoint
	older *version
}

// NewCheckpointLog creates an empty log.
func NewCheckpointLog() *CheckpointLog {
	return &CheckpointLog{latest: make(map[CheckpointKey]*version)}
}

// AppendOwned writes a new version of key's state and returns the version
// number (1 for the first write). The log keeps header and payload
// themselves, so the caller hands them over and must never write to them
// again. The agent runtime passes the snapshot its restart map
// holds, which is written by neither side.
func (l *CheckpointLog) AppendOwned(key CheckpointKey, kind Kind, header, payload []byte) uint64 {
	v := &version{Checkpoint: Checkpoint{Key: key, Kind: kind, Header: header, Payload: payload}}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.latest[key]; ok {
		v.Version = prev.Version + 1
		v.older = prev
	} else {
		v.Version = 1
	}
	l.latest[key] = v
	l.versions++
	l.appends++
	l.bytes += uint64(len(v.Payload))
	return v.Version
}

// copyOut snapshots a stored checkpoint so callers never alias the log's
// internal storage (the log's copy must stay immutable).
func copyOut(cp *Checkpoint) Checkpoint {
	out := *cp
	out.Header = append([]byte(nil), cp.Header...)
	out.Payload = append([]byte(nil), cp.Payload...)
	return out
}

// LatestSlot returns the newest state for (session, slot) regardless of API
// type — the lookup shard failover uses, because a migrating session knows
// its handles (hence slots) but not which type's agent produced each.
func (l *CheckpointLog) LatestSlot(session int, slot uint64) (Checkpoint, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var best *version
	for key, v := range l.latest {
		if key.Session != session || key.Slot != slot {
			continue
		}
		// Two types writing one slot cannot happen (a slot embeds its owning
		// agent's pid), but keep the pick deterministic anyway.
		if best == nil || v.Key.Type < best.Key.Type {
			best = v
		}
	}
	if best == nil {
		return Checkpoint{}, false
	}
	l.adoptions++
	return copyOut(&best.Checkpoint), true
}

// Session returns the latest version of every key owned by session, sorted
// by (Type, Slot) so iteration is deterministic.
func (l *CheckpointLog) Session(session int) []Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Checkpoint
	for key, v := range l.latest {
		if key.Session == session {
			out = append(out, copyOut(&v.Checkpoint))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Type != out[j].Key.Type {
			return out[i].Key.Type < out[j].Key.Type
		}
		return out[i].Key.Slot < out[j].Key.Slot
	})
	return out
}

// DropSession retires every version of every key session owns — the end of
// a finished session's state, which no failover will adopt again. It
// allocates nothing.
func (l *CheckpointLog) DropSession(session int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, v := range l.latest {
		if key.Session != session {
			continue
		}
		delete(l.latest, key)
		for o := v; o != nil; o = o.older {
			l.bytes -= uint64(len(o.Payload))
			l.versions--
		}
	}
}

// Compact retires every superseded version, keeping only the latest per
// (session, API type, slot) key. Readers only ever resolve Latest/LatestSlot
// versions, so compaction is invisible to failover and adoption; what it
// buys is bounded memory for long-running services — after a pass, retained
// versions equal live keys, however many appends the service has issued.
// The control plane runs it after each migration wave.
func (l *CheckpointLog) Compact() CompactStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := CompactStats{Kept: len(l.latest)}
	if l.versions == len(l.latest) {
		return st
	}
	for _, v := range l.latest {
		for o := v.older; o != nil; o = o.older {
			st.Retired++
			st.BytesFreed += uint64(len(o.Payload))
		}
		v.older = nil
	}
	l.versions = len(l.latest)
	l.bytes -= st.BytesFreed
	l.compactions++
	l.retired += uint64(st.Retired)
	return st
}

// Len returns the number of retained versions across all keys.
func (l *CheckpointLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.versions
}

// Stats returns a snapshot of the log counters.
func (l *CheckpointLog) Stats() CheckpointLogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CheckpointLogStats{
		Appends: l.appends, Keys: len(l.latest),
		Bytes: l.bytes, Adoptions: l.adoptions,
		Compactions: l.compactions, Retired: l.retired,
	}
}

// String summarizes the log on one line.
func (l *CheckpointLog) String() string {
	st := l.Stats()
	return fmt.Sprintf("ckptlog(keys=%d appends=%d bytes=%d adoptions=%d)", st.Keys, st.Appends, st.Bytes, st.Adoptions)
}
