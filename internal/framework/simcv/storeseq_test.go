package simcv_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/object"
)

// fixedTensor allocates a tensor of the given shape whose i-th element is
// f(i).
func (e *env) fixedTensor(t *testing.T, f func(i int) float64, shape ...int) framework.Value {
	t.Helper()
	id, ten, err := e.ctx.NewTensor(shape...)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, ten.Len())
	for i := range vals {
		vals[i] = f(i)
	}
	if err := ten.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}

// fixedMat allocates a rows×cols×ch mat whose i-th byte is f(i).
func (e *env) fixedMat(t *testing.T, f func(i int) byte, rows, cols, ch int) framework.Value {
	t.Helper()
	data := make([]byte, rows*cols*ch)
	for i := range data {
		data[i] = f(i)
	}
	id, _, err := e.ctx.NewMatFromBytes(rows, cols, ch, data)
	if err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}

// tensorBytes fetches a result tensor's payload.
func (e *env) tensorBytes(t *testing.T, v framework.Value) []byte {
	t.Helper()
	ten, err := e.ctx.Tensor(v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := object.PayloadBytes(ten)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// callFunc calls an API by name and records the stores it made.
type callFunc func(name string, args ...framework.Value) []framework.Value

// TestKernelStoreSequenceGolden runs each kernel that reads its operands in
// bulk on fixed inputs in a fresh process and pins its output bytes and the
// stores it made on the process space. The chaos write-fault hook draws
// from its PRNG once per store, so these figures must not move when only a
// kernel's reads change: a change that also batches the stores fails here
// instead of quietly moving every chaos replay.
func TestKernelStoreSequenceGolden(t *testing.T) {
	ramp := func(i int) float64 { return float64((i*37)%23) - 11 + 0.25*float64(i%3) }
	cases := []struct {
		api string
		// run builds the operands, calls the API through call and returns
		// its output bytes.
		run         func(t *testing.T, e *env, call callFunc) []byte
		stores      uint64
		bytesStored uint64
		// seq is the SHA-256 of the (address, size) pairs of every store
		// the call attempted, in order; sum is the SHA-256 of the output.
		seq, sum string
	}{
		{
			api: "cv.BFMatcher.match",
			run: func(t *testing.T, e *env, call callFunc) []byte {
				a := e.fixedTensor(t, ramp, 9, 16)
				b := e.fixedTensor(t, func(i int) float64 { return ramp(i*5 + 3) }, 13, 16)
				return e.tensorBytes(t, call("cv.BFMatcher.match", a, b)[0])
			},
			stores: 18, bytesStored: 144,
			seq: "08a854b019176a25b6a5ebf27f4d869c0f4b0bcd7490258911c53efb61c7dc59",
			sum: "1a8fe7844b97e3722f5bbe5f8a10025797b723d5b1634a7730af78464910c47b",
		},
		{
			api: "cv.HOGDescriptor.compute",
			run: func(t *testing.T, e *env, call callFunc) []byte {
				m := e.fixedMat(t, func(i int) byte { return byte(i*7 + i/13) }, 20, 28, 3)
				return e.tensorBytes(t, call("cv.HOGDescriptor.compute", m)[0])
			},
			stores: 468, bytesStored: 3744,
			seq: "854397db9af2bfbfcac3a314cec0d689c057557317f509fd09dbc4a2df0d54cc",
			sum: "f5edd151ddded7928918c58e3a25af7483334ca0eb82d0887c7ce1eb64ec972d",
		},
		{
			api: "cv.remap",
			run: func(t *testing.T, e *env, call callFunc) []byte {
				m := e.fixedMat(t, func(i int) byte { return byte(i * 5) }, 9, 11, 3)
				flow := e.fixedTensor(t, func(i int) float64 { return float64(i%7) - 3 + 0.5*float64(i%2) }, 9, 11, 2)
				return e.bytesOf(t, call("cv.remap", m, flow)[0])
			},
			stores: 1, bytesStored: 297,
			seq: "17e9b4a6e3570c3de726dbbd67e40ee4d1e199b4cf60580ccfb315e4da0be15d",
			sum: "dc08342c4625efe38cf1b42f0c68b0ec49c0a0d3e507af41a2e5d857c9dc42b7",
		},
		{
			api: "cv.compareHist",
			run: func(t *testing.T, e *env, call callFunc) []byte {
				a := e.fixedTensor(t, func(i int) float64 { return float64(i % 5) }, 64)
				b := e.fixedTensor(t, func(i int) float64 { return float64((i * 3) % 4) }, 64)
				d := call("cv.compareHist", a, b)[0].Float
				return binary.BigEndian.AppendUint64(nil, math.Float64bits(d))
			},
			stores: 0, bytesStored: 0,
			seq: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			sum: "ec863a4be5f0175e91834a50ce61477e300b932371d5c9acbd2f085d0443f5ea",
		},
		{
			api: "cv.drawContours",
			run: func(t *testing.T, e *env, call callFunc) []byte {
				m := e.fixedMat(t, func(i int) byte { return byte(i) }, 16, 16, 1)
				boxes := []float64{
					1, 2, 5, 7, 20,
					-2, 9, 3, 18, 40,
					10, 10, 10, 10, 1,
				}
				c := e.fixedTensor(t, func(i int) float64 { return boxes[i] }, 3, 5)
				return e.bytesOf(t, call("cv.drawContours", m, c)[0])
			},
			stores: 1, bytesStored: 256,
			seq: "928eac2e8992349d5269dd13470ea13589112d6d3cdacc075e9006baa82512c0",
			sum: "0c324fb324c11479fa4c3dc04cfe1874a7da873f46958fbfd19b118925f6f3ef",
		},
		{
			api: "cv.writeOpticalFlow",
			run: func(t *testing.T, e *env, call callFunc) []byte {
				flow := e.fixedTensor(t, ramp, 4, 3, 2)
				call("cv.writeOpticalFlow", framework.Str("/golden.flo"), flow)
				b, err := e.k.FS.ReadFile("/golden.flo")
				if err != nil {
					t.Fatal(err)
				}
				return b
			},
			stores: 0, bytesStored: 0,
			seq: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			sum: "18f304df94e2d7d0a9557661f01bf915873507261706974e2628917615b4b4ff",
		},
	}
	for _, tc := range cases {
		t.Run(tc.api, func(t *testing.T) {
			e := newEnv(t)
			space := e.ctx.P.Space()
			var stores, bytesStored uint64
			seq := sha256.New()
			call := func(name string, args ...framework.Value) []framework.Value {
				before := space.Stats()
				space.SetAccessHook(func(addr mem.Addr, n int, kind mem.AccessKind) error {
					if kind == mem.AccessWrite {
						seq.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, uint64(addr)), uint64(n)))
					}
					return nil
				})
				out := e.call(t, name, args...)
				space.SetAccessHook(nil)
				after := space.Stats()
				stores, bytesStored = after.Stores-before.Stores, after.BytesStored-before.BytesStored
				return out
			}
			sum := sha256.Sum256(tc.run(t, e, call))
			got, gotSeq := hex.EncodeToString(sum[:]), hex.EncodeToString(seq.Sum(nil))
			if stores != tc.stores || bytesStored != tc.bytesStored {
				t.Errorf("stores = %d (%d bytes), want %d (%d bytes)", stores, bytesStored, tc.stores, tc.bytesStored)
			}
			if gotSeq != tc.seq {
				t.Errorf("store (address, size) sequence sha256 = %s, want %s", gotSeq, tc.seq)
			}
			if got != tc.sum {
				t.Errorf("output sha256 = %s, want %s", got, tc.sum)
			}
		})
	}
}
