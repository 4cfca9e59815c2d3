package simcv

import (
	"math/big"
	"testing"
)

// productIs reports whether dims multiply to exactly n, in exact
// arithmetic.
func productIs(n int, dims ...int) bool {
	p := big.NewInt(1)
	for _, d := range dims {
		p.Mul(p, big.NewInt(int64(d)))
	}
	return p.Cmp(big.NewInt(int64(n))) == 0
}

// FuzzDecodeFlow: no flow file panics the decoder, and an accepted one
// holds exactly rows×cols×2 values.
func FuzzDecodeFlow(f *testing.F) {
	// A 2×3 field of zeros.
	f.Add(append(flowHeader(2, 3, 96), make([]byte, 96)...))
	// rows = cols = 2^31: rows*cols*2 wraps to 0, matching a bare header.
	f.Add([]byte("FLO1\x80\x00\x00\x00\x80\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, b []byte) {
		rows, cols, vals, err := decodeFlow(b)
		if err == nil && !productIs(len(vals), rows, cols, 2) {
			t.Fatalf("accepted %dx%d flow with %d values", rows, cols, len(vals))
		}
	})
}

// FuzzDecodeImage: no image file panics the decoder, and an accepted one
// holds exactly rows×cols×channels payload bytes.
func FuzzDecodeImage(f *testing.F) {
	good, err := EncodeImage(2, 2, 3, make([]byte, 12))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	// 805306368×808460288×813694976 wraps to 0, matching an empty payload.
	f.Add([]byte("IMG1\x30\x00\x00\x00\x30\x30\x20\x00\x30\x80\x00\x00"))
	f.Fuzz(func(t *testing.T, b []byte) {
		rows, cols, ch, data, err := DecodeImage(b)
		if err == nil && !productIs(len(data), rows, cols, ch) {
			t.Fatalf("accepted %dx%dx%d image with %d bytes", rows, cols, ch, len(data))
		}
	})
}
