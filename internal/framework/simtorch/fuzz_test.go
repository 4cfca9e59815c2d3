package simtorch

import (
	"bytes"
	"testing"
)

// FuzzDecodeModel: no model file panics the decoder, and an accepted one's
// layers re-encode to a prefix of the input (the decoder ignores trailing
// bytes).
func FuzzDecodeModel(f *testing.F) {
	f.Add(EncodeModel([][]float64{{1, 0, 0, 1}, {}, {0.5}}))
	// 2^32−1 layers in no layer bytes: sized by the header alone, the layer
	// slice asked for about 96 GB and the runtime died out of memory.
	f.Add([]byte("PTM1\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, b []byte) {
		layers, err := DecodeModel(b)
		if err == nil && !bytes.HasPrefix(b, EncodeModel(layers)) {
			t.Fatalf("accepted %d layers that do not re-encode to a prefix of the input", len(layers))
		}
	})
}
