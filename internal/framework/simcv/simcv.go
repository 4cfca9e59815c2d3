// Package simcv is a miniature OpenCV: ~90 image-processing APIs with real
// implementations over the simulated substrate. It provides the data
// loading, processing, visualizing, and storing APIs the paper's motivating
// example and evaluation applications use (Tables 2, 4, 6), with the CVE
// sites of Table 5 injected at the same APIs the paper names.
//
// Image file/frame format: "IMG1" magic, three big-endian uint32 (rows,
// cols, channels), then row-major payload bytes. Crafted exploit inputs
// instead begin with the framework trigger magic (framework.Trigger).
package simcv

import (
	"encoding/binary"
	"fmt"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/object"
)

// Name is the framework identifier used in API metadata.
const Name = "simcv"

// imgMagic prefixes encoded images.
var imgMagic = []byte("IMG1")

// EncodeImage serializes an image to the simcv file format.
func EncodeImage(rows, cols, channels int, data []byte) ([]byte, error) {
	if len(data) != rows*cols*channels {
		return nil, fmt.Errorf("simcv: encode %d bytes for shape %dx%dx%d", len(data), rows, cols, channels)
	}
	file, payload := NewImage(rows, cols, channels)
	copy(payload, data)
	return file, nil
}

// NewImage returns an image file of shape rows×cols×channels, its header
// written and its payload zero, and the payload itself, for the caller to
// draw the pixels into where the file holds them.
func NewImage(rows, cols, channels int) (file, payload []byte) {
	n := rows * cols * channels
	file = imageHeader(rows, cols, channels, n)[:16+n]
	return file, file[16:]
}

// imageHeader returns an image's 16 header bytes, in a slice with room for
// its n payload bytes.
func imageHeader(rows, cols, channels, n int) []byte {
	out := make([]byte, 0, 16+n)
	out = append(out, imgMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(rows))
	out = binary.BigEndian.AppendUint32(out, uint32(cols))
	return binary.BigEndian.AppendUint32(out, uint32(channels))
}

// DecodeImage parses the simcv file format.
func DecodeImage(b []byte) (rows, cols, channels int, data []byte, err error) {
	if len(b) < 16 || string(b[:4]) != string(imgMagic) {
		return 0, 0, 0, nil, fmt.Errorf("simcv: not an image (%d bytes)", len(b))
	}
	rows = int(binary.BigEndian.Uint32(b[4:8]))
	cols = int(binary.BigEndian.Uint32(b[8:12]))
	channels = int(binary.BigEndian.Uint32(b[12:16]))
	data = b[16:]
	if n, ok := object.ShapeSize(len(data), rows, cols, channels); !ok || n != len(data) {
		return 0, 0, 0, nil, fmt.Errorf("simcv: corrupt image header %dx%dx%d with %d payload bytes", rows, cols, channels, len(data))
	}
	return rows, cols, channels, data, nil
}

// EncodeMat serializes a mat object to the image format. The payload is
// loaded straight into the encoding, past its header, with the one checked
// load PayloadBytes would make.
func EncodeMat(m *object.Mat) ([]byte, error) {
	r := m.Region()
	out := imageHeader(m.Rows(), m.Cols(), m.Channels(), r.Size)
	out = out[:16+r.Size]
	if err := m.Space().LoadAt(r.Base, out[16:]); err != nil {
		return nil, err
	}
	return out, nil
}

// matView resolves an argument to its mat and its full payload as a
// read-only snapshot (object.Snapshot), with the one checked and counted
// load of the payload. Every kernel reads its input mats this way; one
// that writes a mat, a drawing kernel's canvas, writes it in place with a
// store of its own, and a store into the mat, an exploit handler's among
// them, leaves the view as it was.
func matView(ctx *framework.Ctx, v framework.Value) (*object.Mat, []byte, error) {
	m, err := ctx.Mat(v)
	if err != nil {
		return nil, nil, err
	}
	data, err := object.Snapshot(m)
	if err != nil {
		return nil, nil, err
	}
	return m, data, nil
}

// outMat makes a result mat of data and returns its Value. The mat takes
// data over (framework.Ctx.NewMatFromBytes), so a caller passes bytes
// nothing writes afterwards: a result it has just computed, the pixels of
// a file or camera frame (DecodeImage's slice of them), or grayOf's
// read-only view of a one-channel input.
func outMat(ctx *framework.Ctx, rows, cols, ch int, data []byte) (framework.Value, error) {
	id, _, err := ctx.NewMatFromBytes(rows, cols, ch, data)
	if err != nil {
		return framework.Nil(), err
	}
	return framework.Obj(id), nil
}

// readFlat reads len(dst) consecutive elements of t, from flat index from
// on, one checked load each, stopping at the first access error. Kernels
// that read a fixed handful of elements use it, so they load only those;
// the rest read a whole operand through one view (object.Tensor.View).
func readFlat(t *object.Tensor, from int, dst []float64) error {
	for i := range dst {
		v, err := t.AtFlat(from + i)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// needArgs validates the argument count.
func needArgs(api string, args []framework.Value, n int) error {
	if len(args) < n {
		return fmt.Errorf("simcv: %s needs %d args, got %d", api, n, len(args))
	}
	return nil
}

// clampByte clamps an int to [0, 255].
func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// Registry builds the full simcv API registry.
func Registry() *framework.Registry {
	r := framework.NewRegistry()
	registerIO(r)
	registerPoint(r)
	registerFilter(r)
	registerGeometry(r)
	registerAnalysis(r)
	registerDrawing(r)
	registerDetect(r)
	return r
}
