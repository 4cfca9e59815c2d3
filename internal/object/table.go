package object

import (
	"fmt"
	"sync"

	"freepart.dev/freepart/internal/mem"
)

// Blob is an untyped byte buffer in simulated memory (model weights, CSV
// rows, protobufs, ...).
type Blob struct {
	space  *mem.AddressSpace
	region mem.Region
	n      int
}

// NewBlob allocates a blob holding data.
func NewBlob(space *mem.AddressSpace, data []byte) (*Blob, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("object: empty blob")
	}
	r, err := space.Alloc(len(data))
	if err != nil {
		return nil, err
	}
	if err := space.Store(r.Base, data); err != nil {
		return nil, err
	}
	return &Blob{space: space, region: r, n: len(data)}, nil
}

// Kind implements Object.
func (b *Blob) Kind() Kind { return KindBlob }

// Space implements Object.
func (b *Blob) Space() *mem.AddressSpace { return b.space }

// Region implements Object.
func (b *Blob) Region() mem.Region { return b.region }

// Size returns the payload size.
func (b *Blob) Size() int { return b.n }

// Header is empty for blobs.
func (b *Blob) Header() []byte { return nil }

// Bytes loads the blob contents through the MMU.
func (b *Blob) Bytes() ([]byte, error) { return PayloadBytes(b) }

// CloneInto deep-copies the blob into dst.
func (b *Blob) CloneInto(dst *mem.AddressSpace) (*Blob, error) {
	data, err := b.Bytes()
	if err != nil {
		return nil, err
	}
	return NewBlob(dst, data)
}

// Table is a process-local registry of objects, giving each an ID stable
// across RPC boundaries. Safe for concurrent use.
type Table struct {
	pid uint32

	mu     sync.Mutex
	nextID uint64
	objs   map[uint64]Object
}

// NewTable creates a table owned by the process with the given pid.
func NewTable(pid uint32) *Table {
	return &Table{pid: pid, nextID: 1, objs: make(map[uint64]Object)}
}

// PID returns the owning process id.
func (t *Table) PID() uint32 { return t.pid }

// Put registers an object and returns its id (the map_set of Fig. 10-(c)).
func (t *Table) Put(o Object) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.objs[id] = o
	return id
}

// Get looks up an object by id (the map_get of Fig. 10-(c)).
func (t *Table) Get(id uint64) (Object, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.objs[id]
	return o, ok
}

// Delete removes an object from the table.
func (t *Table) Delete(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.objs, id)
}

// Len reports the number of registered objects.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.objs)
}

// Clear drops every entry (used when a process restarts with a fresh
// address space: old objects are unreachable by design).
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.objs = make(map[uint64]Object)
}

// NextID reports the id the allocator would hand out next.
func (t *Table) NextID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextID
}

// SkipTo advances the allocator so ids below id are never handed out.
// Restart paths use it to keep object ids unique across process
// incarnations: if a fresh incarnation's table reused ids the previous one
// published in refs, the post-restart remap table would misroute the new
// incarnation's refs to restored checkpoints of unrelated objects.
func (t *Table) SkipTo(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id > t.nextID {
		t.nextID = id
	}
}

// RefFor builds a cross-process Ref for a registered object.
func (t *Table) RefFor(id uint64) (Ref, error) {
	o, ok := t.Get(id)
	if !ok {
		return Ref{}, fmt.Errorf("object: no object %d in table of pid %d", id, t.pid)
	}
	h, err := ContentHash(o)
	if err != nil {
		return Ref{}, err
	}
	return Ref{
		PID:    t.pid,
		ID:     id,
		Size:   o.Region().Size,
		Kind:   o.Kind(),
		Hash:   h,
		Header: o.Header(),
	}, nil
}

// Rebuild materializes an object of the ref's kind in space from raw
// payload bytes (the receiving side of a data copy).
func Rebuild(space *mem.AddressSpace, ref Ref, payload []byte) (Object, error) {
	switch ref.Kind {
	case KindMat:
		rows, cols, ch, err := MatShapeFromHeader(ref.Header)
		if err != nil {
			return nil, err
		}
		return MatFromBytes(space, rows, cols, ch, payload)
	case KindTensor:
		shape, err := TensorShapeFromHeader(ref.Header)
		if err != nil {
			return nil, err
		}
		n, err := tensorLen(shape)
		if err != nil {
			return nil, err
		}
		if len(payload) != n*8 {
			return nil, fmt.Errorf("object: tensor payload %d bytes, want %d", len(payload), n*8)
		}
		nt, err := NewTensor(space, shape...)
		if err != nil {
			return nil, err
		}
		if err := space.Store(nt.Region().Base, payload); err != nil {
			return nil, err
		}
		return nt, nil
	case KindBlob:
		return NewBlob(space, payload)
	default:
		return nil, fmt.Errorf("object: unknown kind %v", ref.Kind)
	}
}
