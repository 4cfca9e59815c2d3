// Package object provides the data objects that flow through framework
// APIs: images (Mat), tensors (Tensor), and raw buffers (Blob). Every
// object's payload lives inside a simulated address space (internal/mem),
// so page permissions and cross-process isolation apply to it for real.
//
// Objects are identified process-locally by an ID in a Table, and cross-
// process by a Ref — the "object reference (without data)" of the paper's
// lazy-data-copy design (Fig. 11): the owning process id plus a buffer
// identifier and a content hash.
package object

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"freepart.dev/freepart/internal/mem"
)

// Kind discriminates object types across the RPC boundary.
type Kind uint8

// Object kinds.
const (
	KindBlob Kind = iota
	KindMat
	KindTensor
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBlob:
		return "blob"
	case KindMat:
		return "mat"
	case KindTensor:
		return "tensor"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Object is a datum materialized in a simulated address space.
type Object interface {
	// Kind identifies the concrete type.
	Kind() Kind
	// Space is the address space holding the payload.
	Space() *mem.AddressSpace
	// Region is the payload's location.
	Region() mem.Region
	// Header returns the type-specific metadata (shape, etc.) used to
	// reconstruct the object after a raw byte transfer. The bytes are the
	// object's own, kept from its creation, and the refs RefFor makes share
	// them: callers read them and never write them.
	Header() []byte
}

// ShapeSize returns the product of dims if every dimension is positive and
// the product is at most limit. Each dimension is checked against what is
// left of limit before it is multiplied in, so a shape whose product would
// overflow an int is refused instead of wrapping to a small count. Decoders
// bound a shape by the payload bytes they hold, allocators by math.MaxInt.
func ShapeSize(limit int, dims ...int) (int, bool) {
	p := 1
	for _, d := range dims {
		if d <= 0 || d > limit/p {
			return 0, false
		}
		p *= d
	}
	return p, true
}

// PayloadBytes loads an object's full payload from its space. It fails with
// a mem.Fault if the region is protected against reads.
func PayloadBytes(o Object) ([]byte, error) {
	r := o.Region()
	return o.Space().Load(r.Base, r.Size)
}

// Snapshot returns an object's full payload as PayloadBytes does, with the
// same access check and counters, but the bytes are read-only: the space
// hands the same slice to every Snapshot of the object until a Store
// writes into its region (mem.AddressSpace.Snapshot). For a payload of a
// page or more the slice is the region's own slab, copy-on-write, so a
// snapshot copies nothing; a smaller payload is copied once and kept.
// Take a snapshot where the payload is only read, or kept; a caller that
// writes the bytes loads with PayloadBytes.
func Snapshot(o Object) ([]byte, error) {
	return o.Space().Snapshot(o.Region())
}

// ContentHash hashes the object's payload (used in Refs so stale lazy
// copies are detectable). It loads the payload a page at a time into a
// stack buffer, so hashing copies nothing to the heap.
func ContentHash(o Object) (uint64, error) {
	r, space := o.Region(), o.Space()
	h := fnv.New64a()
	var page [mem.PageSize]byte
	for off := 0; off < r.Size; off += len(page) {
		chunk := page[:min(len(page), r.Size-off)]
		if err := space.LoadAt(r.Base+mem.Addr(off), chunk); err != nil {
			return 0, err
		}
		_, _ = h.Write(chunk)
	}
	return h.Sum64(), nil
}

// Ref is a cross-process object reference carrying no payload: the owning
// process id, the buffer identifier within that process's Table, the
// payload size, the kind, and the header needed to rebuild the object.
type Ref struct {
	PID    uint32
	ID     uint64
	Size   int
	Kind   Kind
	Hash   uint64
	Header []byte
}

// EncodedLen is the length of the ref's encoding: 29 fixed bytes, then
// the header.
func (r Ref) EncodedLen() int { return 29 + len(r.Header) }

// Append appends the ref's encoding to b. It is the field of a reference
// value in the framework call/reply wire format, written straight into
// the message buffer.
func (r Ref) Append(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, r.PID)
	b = binary.BigEndian.AppendUint64(b, r.ID)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Size))
	b = append(b, byte(r.Kind))
	b = binary.BigEndian.AppendUint64(b, r.Hash)
	return append(b, r.Header...)
}

// DecodeRefInto parses an encoded ref into r. The header is copied, into
// the array r.Header holds when that has room; an empty one decodes as
// nil.
func DecodeRefInto(r *Ref, b []byte) error {
	if len(b) < 29 {
		return fmt.Errorf("object: short ref (%d bytes)", len(b))
	}
	var header []byte
	if len(b) > 29 {
		header = append(r.Header[:0], b[29:]...)
	}
	*r = Ref{
		PID:    binary.BigEndian.Uint32(b[0:4]),
		ID:     binary.BigEndian.Uint64(b[4:12]),
		Size:   int(binary.BigEndian.Uint64(b[12:20])),
		Kind:   Kind(b[20]),
		Hash:   binary.BigEndian.Uint64(b[21:29]),
		Header: header,
	}
	return nil
}
