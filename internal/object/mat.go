package object

import (
	"encoding/binary"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/mem"
)

// Mat is an image matrix, modeled on OpenCV's cv::Mat: a header (shape)
// plus a payload buffer in simulated memory holding row-major
// rows×cols×channels bytes.
type Mat struct {
	// header is the shape as Header encodes it, and its only record: rows,
	// cols and channels as big-endian uint32s.
	header [12]byte
	space  *mem.AddressSpace
	region mem.Region
}

// NewMat allocates a zeroed rows×cols×channels image in space. A shape
// whose byte size does not fit in an int is out of memory.
func NewMat(space *mem.AddressSpace, rows, cols, channels int) (*Mat, error) {
	if rows <= 0 || cols <= 0 || channels <= 0 {
		return nil, fmt.Errorf("object: invalid mat shape %dx%dx%d", rows, cols, channels)
	}
	n, ok := ShapeSize(math.MaxInt, rows, cols, channels)
	if !ok {
		return nil, fmt.Errorf("%w: mat shape %dx%dx%d", mem.ErrOutOfMemory, rows, cols, channels)
	}
	r, err := space.Alloc(n)
	if err != nil {
		return nil, err
	}
	return newMat(space, r, rows, cols, channels), nil
}

// newMat wraps region r of space, rows*cols*channels bytes, as a mat.
func newMat(space *mem.AddressSpace, r mem.Region, rows, cols, channels int) *Mat {
	m := &Mat{space: space, region: r}
	binary.BigEndian.PutUint32(m.header[0:4], uint32(rows))
	binary.BigEndian.PutUint32(m.header[4:8], uint32(cols))
	binary.BigEndian.PutUint32(m.header[8:12], uint32(channels))
	return m
}

// MatFromBytes makes a rows×cols×channels mat of data, whose length must
// be rows*cols*channels. The mat takes data over (mem.AddressSpace.Map):
// in a fresh span the region's slab is data itself, copy-on-write, so the
// caller must not write data afterwards.
func MatFromBytes(space *mem.AddressSpace, rows, cols, channels int, data []byte) (*Mat, error) {
	if err := checkMatSize(len(data), rows, cols, channels); err != nil {
		return nil, err
	}
	r, err := space.Map(data)
	if err != nil {
		return nil, err
	}
	return newMat(space, r, rows, cols, channels), nil
}

// checkMatSize checks that n bytes are exactly a rows×cols×channels mat.
func checkMatSize(n, rows, cols, channels int) error {
	if size, ok := ShapeSize(n, rows, cols, channels); !ok || size != n {
		return fmt.Errorf("object: mat data %d bytes, shape %dx%dx%d", n, rows, cols, channels)
	}
	return nil
}

// Kind implements Object.
func (m *Mat) Kind() Kind { return KindMat }

// Space implements Object.
func (m *Mat) Space() *mem.AddressSpace { return m.space }

// Region implements Object.
func (m *Mat) Region() mem.Region { return m.region }

// Rows returns the image height.
func (m *Mat) Rows() int { return int(binary.BigEndian.Uint32(m.header[0:4])) }

// Cols returns the image width.
func (m *Mat) Cols() int { return int(binary.BigEndian.Uint32(m.header[4:8])) }

// Channels returns the number of channels.
func (m *Mat) Channels() int { return int(binary.BigEndian.Uint32(m.header[8:12])) }

// Size returns the payload size in bytes.
func (m *Mat) Size() int { return m.Rows() * m.Cols() * m.Channels() }

// Header returns the shape for reconstruction after transfer: rows, cols
// and channels as big-endian uint32s, encoded once at creation.
func (m *Mat) Header() []byte { return m.header[:] }

// MatShapeFromHeader decodes a Mat header.
func MatShapeFromHeader(h []byte) (rows, cols, channels int, err error) {
	if len(h) != 12 {
		return 0, 0, 0, fmt.Errorf("object: bad mat header length %d", len(h))
	}
	return int(binary.BigEndian.Uint32(h[0:4])),
		int(binary.BigEndian.Uint32(h[4:8])),
		int(binary.BigEndian.Uint32(h[8:12])), nil
}

// offset computes the payload offset of a pixel channel.
func (m *Mat) offset(row, col, ch int) (mem.Addr, error) {
	rows, cols, channels := m.Rows(), m.Cols(), m.Channels()
	if row < 0 || row >= rows || col < 0 || col >= cols || ch < 0 || ch >= channels {
		return 0, fmt.Errorf("object: pixel (%d,%d,%d) out of %dx%dx%d", row, col, ch, rows, cols, channels)
	}
	return m.region.Base + mem.Addr((row*cols+col)*channels+ch), nil
}

// At reads one pixel channel through the MMU (permission-checked).
func (m *Mat) At(row, col, ch int) (byte, error) {
	a, err := m.offset(row, col, ch)
	if err != nil {
		return 0, err
	}
	return m.space.LoadByte(a)
}

// Set writes one pixel channel through the MMU (permission-checked).
func (m *Mat) Set(row, col, ch int, v byte) error {
	a, err := m.offset(row, col, ch)
	if err != nil {
		return err
	}
	return m.space.StoreByte(a, v)
}

// String describes the mat.
func (m *Mat) String() string {
	return fmt.Sprintf("Mat(%dx%dx%d @%#x)", m.Rows(), m.Cols(), m.Channels(), uint64(m.region.Base))
}
