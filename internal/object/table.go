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
}

// NewBlob makes a blob of data. The blob takes data over
// (mem.AddressSpace.Map): in a fresh span the region's slab is data
// itself, copy-on-write, so the caller must not write data afterwards.
func NewBlob(space *mem.AddressSpace, data []byte) (*Blob, error) {
	o, err := build(space, Ref{Kind: KindBlob}, len(data), func() (mem.Region, error) {
		return space.Map(data)
	})
	if err != nil {
		return nil, err
	}
	return o.(*Blob), nil
}

// Kind implements Object.
func (b *Blob) Kind() Kind { return KindBlob }

// Space implements Object.
func (b *Blob) Space() *mem.AddressSpace { return b.space }

// Region implements Object.
func (b *Blob) Region() mem.Region { return b.region }

// Header is empty for blobs.
func (b *Blob) Header() []byte { return nil }

// Bytes loads the blob contents through the MMU.
func (b *Blob) Bytes() ([]byte, error) { return PayloadBytes(b) }

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
// payload bytes (the receiving side of a data copy). It copies the
// payload, which the caller may reuse or keep: a connection's receive
// buffer is reused by its next call, and a checkpoint log keeps its bytes.
func Rebuild(space *mem.AddressSpace, ref Ref, payload []byte) (Object, error) {
	return build(space, ref, len(payload), func() (mem.Region, error) {
		r, err := space.Alloc(len(payload))
		if err != nil {
			return mem.Region{}, err
		}
		return r, space.Store(r.Base, payload)
	})
}

// CopyInto copies src into space, which may be src's own, as an object of
// the ref's kind and header: the receiving side of a data copy whose
// source is still mapped, such as a lazy copy's dereference (Fig. 11-(a),
// step 4). The payload moves once, slab to slab (mem.Copy), so CopyInto
// checks, calls the access hooks and counts exactly as PayloadBytes of src
// followed by Rebuild, and a refused read leaves space as it was. The ref
// is held to src's payload size with Rebuild's checks and errors, before
// either space is touched.
func CopyInto(space *mem.AddressSpace, ref Ref, src Object) (Object, error) {
	r := src.Region()
	return build(space, ref, r.Size, func() (mem.Region, error) {
		return mem.Copy(space, src.Space(), r.Base, r.Size)
	})
}

// build checks that n payload bytes fit the ref's kind and header, then
// has place allocate the payload's region in space and fill it, and wraps
// the region as the ref's kind.
func build(space *mem.AddressSpace, ref Ref, n int, place func() (mem.Region, error)) (Object, error) {
	switch ref.Kind {
	case KindMat:
		rows, cols, ch, err := MatShapeFromHeader(ref.Header)
		if err != nil {
			return nil, err
		}
		if err := checkMatSize(n, rows, cols, ch); err != nil {
			return nil, err
		}
		r, err := place()
		if err != nil {
			return nil, err
		}
		return newMat(space, r, rows, cols, ch), nil
	case KindTensor:
		shape, err := TensorShapeFromHeader(ref.Header)
		if err != nil {
			return nil, err
		}
		elems, err := tensorLen(shape)
		if err != nil {
			return nil, err
		}
		if n != elems*8 {
			return nil, fmt.Errorf("object: tensor payload %d bytes, want %d", n, elems*8)
		}
		r, err := place()
		if err != nil {
			return nil, err
		}
		return newTensor(space, r, elems, shape), nil
	case KindBlob:
		if n == 0 {
			return nil, fmt.Errorf("object: empty blob")
		}
		r, err := place()
		if err != nil {
			return nil, err
		}
		return &Blob{space: space, region: r}, nil
	default:
		return nil, fmt.Errorf("object: unknown kind %v", ref.Kind)
	}
}
