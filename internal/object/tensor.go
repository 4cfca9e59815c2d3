package object

import (
	"encoding/binary"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/mem"
)

// Tensor is an n-dimensional float64 array backed by simulated memory,
// modeled on PyTorch/TensorFlow tensors. Elements are stored row-major,
// 8 bytes each, big-endian.
type Tensor struct {
	// header is the shape as Header encodes it, and its only record: the
	// dimension count, then each dimension, as big-endian uint32s. small
	// holds it for up to four dimensions, so such a tensor is one
	// allocation.
	header []byte
	small  [4 + 4*4]byte
	n      int // element count
	space  *mem.AddressSpace
	region mem.Region
}

// NewTensor allocates a zeroed tensor with the given shape.
func NewTensor(space *mem.AddressSpace, shape ...int) (*Tensor, error) {
	n, err := tensorLen(shape)
	if err != nil {
		return nil, err
	}
	r, err := space.Alloc(n * 8)
	if err != nil {
		return nil, err
	}
	return newTensor(space, r, n, shape), nil
}

// newTensor wraps region r of space, n elements of the given shape, as a
// tensor.
func newTensor(space *mem.AddressSpace, r mem.Region, n int, shape []int) *Tensor {
	t := &Tensor{n: n, space: space, region: r}
	t.header = t.small[:0]
	if size := 4 + 4*len(shape); size > len(t.small) {
		t.header = make([]byte, 0, size)
	}
	t.header = binary.BigEndian.AppendUint32(t.header, uint32(len(shape)))
	for _, d := range shape {
		t.header = binary.BigEndian.AppendUint32(t.header, uint32(d))
	}
	return t
}

// tensorLen returns the element count of shape. A shape whose byte size
// does not fit in an int is out of memory, rather than wrapping to a small
// count.
func tensorLen(shape []int) (int, error) {
	if len(shape) == 0 {
		return 0, fmt.Errorf("object: tensor needs at least one dimension")
	}
	for _, d := range shape {
		if d <= 0 {
			return 0, fmt.Errorf("object: invalid tensor dim %d in %v", d, shape)
		}
	}
	n, ok := ShapeSize(math.MaxInt/8, shape...)
	if !ok {
		return 0, fmt.Errorf("%w: tensor shape %v", mem.ErrOutOfMemory, shape)
	}
	return n, nil
}

// Kind implements Object.
func (t *Tensor) Kind() Kind { return KindTensor }

// Space implements Object.
func (t *Tensor) Space() *mem.AddressSpace { return t.space }

// Region implements Object.
func (t *Tensor) Region() mem.Region { return t.region }

// rank returns the number of dimensions.
func (t *Tensor) rank() int { return len(t.header)/4 - 1 }

// dim returns the size of dimension i.
func (t *Tensor) dim(i int) int { return int(binary.BigEndian.Uint32(t.header[4+4*i:])) }

// Shape returns the tensor's dimensions.
func (t *Tensor) Shape() []int {
	shape := make([]int, t.rank())
	for i := range shape {
		shape[i] = t.dim(i)
	}
	return shape
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return t.n }

// Size returns the payload size in bytes.
func (t *Tensor) Size() int { return t.Len() * 8 }

// Header returns the shape, encoded once at creation.
func (t *Tensor) Header() []byte { return t.header }

// TensorShapeFromHeader decodes a tensor header.
func TensorShapeFromHeader(h []byte) ([]int, error) {
	if len(h) < 4 {
		return nil, fmt.Errorf("object: short tensor header")
	}
	nd := int(binary.BigEndian.Uint32(h[0:4]))
	if len(h) != 4+4*nd {
		return nil, fmt.Errorf("object: tensor header length %d for %d dims", len(h), nd)
	}
	shape := make([]int, nd)
	for i := 0; i < nd; i++ {
		shape[i] = int(binary.BigEndian.Uint32(h[4+4*i : 8+4*i]))
	}
	return shape, nil
}

// flatIndex converts multi-dim indices to a flat offset.
func (t *Tensor) flatIndex(idx []int) (int, error) {
	if len(idx) != t.rank() {
		return 0, fmt.Errorf("object: %d indices for %d-dim tensor", len(idx), t.rank())
	}
	flat := 0
	for i, x := range idx {
		d := t.dim(i)
		if x < 0 || x >= d {
			return 0, fmt.Errorf("object: index %d out of dim %d (size %d)", x, i, d)
		}
		flat = flat*d + x
	}
	return flat, nil
}

// At reads an element through the MMU.
func (t *Tensor) At(idx ...int) (float64, error) {
	flat, err := t.flatIndex(idx)
	if err != nil {
		return 0, err
	}
	return t.AtFlat(flat)
}

// AtFlat reads the i-th element in row-major order, with a checked load of
// its 8 bytes. It allocates nothing; a kernel that reads a whole operand
// takes one View of it instead, one load in all.
func (t *Tensor) AtFlat(i int) (float64, error) {
	if i < 0 || i >= t.Len() {
		return 0, fmt.Errorf("object: flat index %d out of %d", i, t.Len())
	}
	var b [8]byte
	if err := t.space.LoadAt(t.region.Base+mem.Addr(i*8), b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b[:])), nil
}

// Set writes an element through the MMU.
func (t *Tensor) Set(v float64, idx ...int) error {
	flat, err := t.flatIndex(idx)
	if err != nil {
		return err
	}
	return t.SetFlat(flat, v)
}

// SetFlat writes the i-th element in row-major order.
func (t *Tensor) SetFlat(i int, v float64) error {
	if i < 0 || i >= t.Len() {
		return fmt.Errorf("object: flat index %d out of %d", i, t.Len())
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	return t.space.Store(t.region.Base+mem.Addr(i*8), b[:])
}

// Values decodes every element into a new slice, with one checked load
// per page, each through a stack buffer. No kernel reads its operands this
// way since they read them through a View; Values is the decode-first
// reference the kernels' differential tests hold them to.
func (t *Tensor) Values() ([]float64, error) {
	vals := make([]float64, t.Len())
	var page [mem.PageSize]byte
	for off := 0; off < len(vals)*8; off += len(page) {
		chunk := page[:min(len(page), len(vals)*8-off)]
		if err := t.space.LoadAt(t.region.Base+mem.Addr(off), chunk); err != nil {
			return nil, err
		}
		dst := vals[off/8:]
		for i := range len(chunk) / 8 {
			dst[i] = math.Float64frombits(binary.BigEndian.Uint64(chunk[i*8:]))
		}
	}
	return vals, nil
}

// TensorView is a tensor's elements where its region holds them: a
// read-only snapshot of the payload (Snapshot) that decodes each
// big-endian float64 when it is read, so reading an operand copies
// nothing. A view is never written. It keeps the bytes it was taken of: a
// later store into the tensor writes around it (mem.AddressSpace.Snapshot),
// so a kernel may read a view of a tensor while it fills that tensor.
type TensorView struct{ b []byte }

// View returns the tensor's elements as a read-only view, with one checked
// and counted load of the whole region: the access check, the access hook
// and BytesLoaded are those of a load of every element.
func (t *Tensor) View() (TensorView, error) {
	b, err := t.space.Snapshot(t.region)
	if err != nil {
		return TensorView{}, err
	}
	return TensorView{b}, nil
}

// Len returns the number of elements.
func (v TensorView) Len() int { return len(v.b) / 8 }

// At decodes the i-th element in row-major order.
func (v TensorView) At(i int) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(v.b[8*i:]))
}

// Append appends the elements' encoding, 8 big-endian bytes each as the
// region holds them, to b: a tensor's bytes in a file are these.
func (v TensorView) Append(b []byte) []byte { return append(b, v.b...) }

// Fill sets every element i to f(i), encoding each straight into the
// region under one checked store (mem.AddressSpace.StoreInPlace): a
// kernel's output needs no slice of its own. f is called once per element,
// in order, so it may keep state from one element to the next. It runs
// under the space's lock and must not touch the space; it may read views,
// which are the Go memory they were taken of, the tensor's own among them.
func (t *Tensor) Fill(f func(i int) float64) error {
	i := 0
	return t.space.StoreInPlace(t.region.Base, t.n*8, func(b []byte) {
		for ; len(b) >= 8; b = b[8:] {
			binary.BigEndian.PutUint64(b, math.Float64bits(f(i)))
			i++
		}
	})
}

// SetValues stores every element; len(vals) must equal t.Len(). It is Fill
// from a slice: one checked store, with no buffer of its own.
func (t *Tensor) SetValues(vals []float64) error {
	if len(vals) != t.Len() {
		return fmt.Errorf("object: SetValues got %d values for %d elements", len(vals), t.Len())
	}
	return t.Fill(func(i int) float64 { return vals[i] })
}

// String describes the tensor.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%v @%#x)", t.Shape(), uint64(t.region.Base))
}
