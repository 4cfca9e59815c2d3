package object

import (
	"sync"

	"freepart.dev/freepart/internal/mem"
)

// CheckpointKey identifies one durable piece of stateful-API state in a
// CheckpointLog: the serving session that owns it and a slot naming the
// state object within the session (the owning agent's pid folded with the
// object's canonical table id, so two state objects held by different
// agents never collide).
type CheckpointKey struct {
	// Session is the serving-layer session id.
	Session int
	// Slot names the state object inside the session.
	Slot uint64
}

// Slot folds an owning pid and canonical object id into a CheckpointKey slot.
func Slot(pid uint32, id uint64) uint64 { return uint64(pid)<<32 | id }

// Checkpoint is a key's current state: enough to rebuild the object in any
// address space. Payloads are copy-on-write: nobody writes to the log's
// bytes, readers get copies, and a shard that materializes the checkpoint
// writes into its own space (Rebuild copies).
type Checkpoint struct {
	Key CheckpointKey
	// Type is the API type (a framework.APIType value) whose partition owns
	// the state; adoption falls back to the agent homing this type when the
	// destination has no agent with the slot's pid.
	Type    uint8
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
	// Appends is how many checkpoints were written.
	Appends uint64
	// Keys is how many distinct keys hold state.
	Keys int
	// Bytes is the payload volume of the current checkpoints.
	Bytes uint64
	// Adoptions is how many checkpoints were read for cross-shard adoption.
	Adoptions uint64
}

// CheckpointLog is the portable, copy-on-write checkpoint store of the
// serving layer. Agent runtimes append stateful-API state here keyed by
// (session, slot), and the log keeps each key's latest checkpoint; because
// the log lives outside any shard's kernel, any shard can materialize a
// session's latest state into its own address space — the substrate of
// shard failover. An append replaces the key's checkpoint and never writes
// the bytes of the one it replaces, so a reader racing an append holds a
// complete, consistent snapshot. Safe for concurrent use.
type CheckpointLog struct {
	mu        sync.Mutex
	cps       map[CheckpointKey]Checkpoint
	appends   uint64
	adoptions uint64
}

// NewCheckpointLog creates an empty log.
func NewCheckpointLog() *CheckpointLog {
	return &CheckpointLog{cps: make(map[CheckpointKey]Checkpoint)}
}

// AppendOwned makes cp its key's checkpoint. The log keeps cp's header and
// payload themselves, so the caller hands them over and must never write
// to them again. The agent runtime passes the snapshot its restart map
// holds, which is written by neither side.
func (l *CheckpointLog) AppendOwned(cp Checkpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cps[cp.Key] = cp
	l.appends++
}

// LatestSlot returns a copy of the checkpoint of (session, slot) — the
// lookup shard failover uses, because a migrating session knows its
// handles, hence its slots. The copy keeps callers from aliasing the log's
// storage, which must stay immutable.
func (l *CheckpointLog) LatestSlot(session int, slot uint64) (Checkpoint, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cp, ok := l.cps[CheckpointKey{Session: session, Slot: slot}]
	if !ok {
		return Checkpoint{}, false
	}
	l.adoptions++
	cp.Header = append([]byte(nil), cp.Header...)
	cp.Payload = append([]byte(nil), cp.Payload...)
	return cp, true
}

// SessionBytes returns the payload volume of session's checkpoints: the
// state a migration of the session moves.
func (l *CheckpointLog) SessionBytes(session int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for key, cp := range l.cps {
		if key.Session == session {
			n += len(cp.Payload)
		}
	}
	return n
}

// DropSession retires every checkpoint session owns — the end of a
// finished session's state, which no failover will adopt again. It
// allocates nothing.
func (l *CheckpointLog) DropSession(session int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for key := range l.cps {
		if key.Session == session {
			delete(l.cps, key)
		}
	}
}

// Stats returns a snapshot of the log counters.
func (l *CheckpointLog) Stats() CheckpointLogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := CheckpointLogStats{Appends: l.appends, Keys: len(l.cps), Adoptions: l.adoptions}
	for _, cp := range l.cps {
		st.Bytes += uint64(len(cp.Payload))
	}
	return st
}
