package object

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"testing"

	"freepart.dev/freepart/internal/mem"
)

// FuzzRebuild rebuilds objects from arbitrary kinds, headers and payloads.
// Nothing may panic, and an accepted object must hold exactly the payload,
// with a byte size equal to the exact product of its dimensions (times 8
// for a tensor, so a byte size that wraps shows as well as a wrapped
// element count).
func FuzzRebuild(f *testing.F) {
	f.Add(uint8(KindTensor), be32(2, 2, 3), make([]byte, 48)) // 2 dims: 2×3
	f.Add(uint8(KindMat), be32(2, 2, 3), make([]byte, 12))    // 2×2×3
	f.Add(uint8(KindBlob), []byte(nil), []byte("blob"))
	// 1380655685 × 3340214413 = 2^62+1 elements, whose byte size wraps to 8.
	f.Add(uint8(KindTensor), be32(2, 1380655685, 3340214413), make([]byte, 8))
	f.Fuzz(func(t *testing.T, kind uint8, header, payload []byte) {
		space := mem.NewSpace()
		space.SetLimit(1 << 20)
		o, err := Rebuild(space, Ref{Kind: Kind(kind), Header: header}, payload)
		if err != nil {
			return
		}
		var dims []int
		var count int
		switch o := o.(type) {
		case *Mat:
			dims, count = []int{o.Rows(), o.Cols(), o.Channels()}, o.Size()
		case *Tensor:
			dims, count = append(o.Shape(), 8), o.Size()
		case *Blob:
			dims, count = []int{len(payload)}, o.Size()
		}
		want := big.NewInt(1)
		for _, d := range dims {
			want.Mul(want, big.NewInt(int64(d)))
		}
		if want.Cmp(big.NewInt(int64(count))) != 0 {
			t.Fatalf("%v: dimensions %v multiply to %v, object holds %d", o, dims, want, count)
		}
		got, err := PayloadBytes(o)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%v: payload %x (%v), want %x", o, got, err, payload)
		}
	})
}

// be32 encodes each of vals as a big-endian uint32, as shape headers are.
func be32(vals ...uint32) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
}

// TestShapeOverflowOutOfMemory: a shape whose byte size overflows an int is
// rejected as out of memory, instead of wrapping to a small allocation
// whose Shape reports the huge dimensions.
func TestShapeOverflowOutOfMemory(t *testing.T) {
	s := mem.NewSpace()
	if ten, err := NewTensor(s, 1<<61+1, 8); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("NewTensor(2^61+1, 8) = %v, %v; want ErrOutOfMemory", ten, err)
	}
	if m, err := NewMat(s, 1<<32, 1<<31, 2); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("NewMat(2^32, 2^31, 2) = %v, %v; want ErrOutOfMemory", m, err)
	}
}

// TestShapeSize: the product is returned only when every dimension is
// positive and the product fits under the limit, including products that
// would wrap an int to a value under the limit.
func TestShapeSize(t *testing.T) {
	for _, c := range []struct {
		limit int
		dims  []int
		want  int
		ok    bool
	}{
		{12, []int{2, 2, 3}, 12, true},
		{13, []int{2, 2, 3}, 12, true},
		{11, []int{2, 2, 3}, 0, false},
		{12, []int{2, 0, 3}, 0, false},
		{12, []int{2, -2, 3}, 0, false},
		{0, []int{1 << 31, 1 << 31, 2}, 0, false},
		{math.MaxInt, []int{1 << 32, 1 << 31, 2}, 0, false},
		{math.MaxInt, []int{1 << 31, 1 << 31}, 1 << 62, true},
	} {
		if got, ok := ShapeSize(c.limit, c.dims...); got != c.want || ok != c.ok {
			t.Errorf("ShapeSize(%d, %v) = %d, %v; want %d, %v", c.limit, c.dims, got, ok, c.want, c.ok)
		}
	}
}
