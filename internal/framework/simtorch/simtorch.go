// Package simtorch is a miniature PyTorch: tensor construction, neural-net
// layers (conv, linear, pooling, activations), model load/save, dataset
// loading, and an SGD optimizer, all over the simulated substrate.
//
// Model file format: "PTM1" magic, uint32 layer count, then per layer a
// uint32 value count and big-endian float64 weights. StegoNet-style trojan
// models (§A.7) are built by embedding a framework.Trigger in the weight
// stream; the payload detonates when the model executes (Module.forward),
// matching the paper's observation that model loading feeds the data
// processing process.
package simtorch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/tensors"
	"freepart.dev/freepart/internal/kernel"
)

// Name is the framework identifier.
const Name = "simtorch"

// TensorFlow-style CVE ids live in simflow; simtorch carries the torch
// pickle-style load hazard used by the StegoNet case study.
const (
	// CVEStegoNet marks a trojaned model whose payload runs at inference
	// time (Liu et al., reproduced in §A.7).
	CVEStegoNet = "STEGONET-TROJAN"
)

// modelMagic prefixes serialized models.
var modelMagic = []byte("PTM1")

// EncodeModel serializes layers of float64 weights into one buffer of
// exactly the encoded size.
func EncodeModel(layers [][]float64) []byte {
	return BuildModel(len(layers), func(i int) int { return len(layers[i]) }, func(i, j int) float64 { return layers[i][j] })
}

// BuildModel serializes a model of n layers, layer i of size(i) weights,
// into one buffer of exactly the encoded size. weight(i, j) gives the j-th
// weight of layer i; it is called once per weight, layer by layer, in
// order, as the weight is encoded.
func BuildModel(n int, size func(layer int) int, weight func(layer, j int) float64) []byte {
	total := len(modelMagic) + 4
	for i := range n {
		total += 4 + 8*size(i)
	}
	out := append(make([]byte, 0, total), modelMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(n))
	for i := range n {
		m := size(i)
		out = binary.BigEndian.AppendUint32(out, uint32(m))
		for j := range m {
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(weight(i, j)))
		}
	}
	return out
}

// modelWalk reads a serialized model's layers where they lie: next returns
// each layer's weights as the file holds them, 8 bytes apiece for weight
// to decode, so a walk copies no weight and allocates nothing.
type modelWalk struct {
	b    []byte
	n, i int // layer count, layers read
	off  int // offset of layer i's header
}

// more reports whether layers remain.
func (w *modelWalk) more() bool { return w.i < w.n }

// next returns the next layer's weight bytes.
func (w *modelWalk) next() ([]byte, error) {
	if w.off+4 > len(w.b) {
		return nil, fmt.Errorf("simtorch: truncated model (layer %d header)", w.i)
	}
	cnt := int(binary.BigEndian.Uint32(w.b[w.off:]))
	start := w.off + 4
	if start+8*cnt > len(w.b) {
		return nil, fmt.Errorf("simtorch: truncated model (layer %d data)", w.i)
	}
	w.off = start + 8*cnt
	w.i++
	return w.b[start:w.off], nil
}

// weight decodes the j-th weight of a layer's bytes.
func weight(l []byte, j int) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(l[8*j:]))
}

// checkModel checks a serialized model's framing (magic, layer count, and
// every layer's header and data in bounds) without reading a weight, and
// returns a walk from its first layer, which then cannot fail.
func checkModel(b []byte) (modelWalk, error) {
	if len(b) < 8 || string(b[:4]) != string(modelMagic) {
		return modelWalk{}, fmt.Errorf("simtorch: not a model file")
	}
	n := int(binary.BigEndian.Uint32(b[4:8]))
	// Every layer needs at least its 4-byte header, so a count the rest of
	// the file cannot hold is refused before it sizes anything.
	if n > (len(b)-8)/4 {
		return modelWalk{}, fmt.Errorf("simtorch: truncated model (%d layers in %d bytes)", n, len(b)-8)
	}
	w := modelWalk{b: b, n: n, off: 8}
	for probe := w; probe.more(); {
		if _, err := probe.next(); err != nil {
			return modelWalk{}, err
		}
	}
	return w, nil
}

// DecodeModel parses a serialized model. Trailing bytes are ignored.
func DecodeModel(b []byte) ([][]float64, error) {
	w, err := checkModel(b)
	if err != nil {
		return nil, err
	}
	layers := make([][]float64, 0, w.n)
	for w.more() {
		lb, _ := w.next() // checkModel walked the framing already
		l := make([]float64, len(lb)/8)
		for j := range l {
			l[j] = weight(lb, j)
		}
		layers = append(layers, l)
	}
	return layers, nil
}

// Registry builds the simtorch API registry.
func Registry() *framework.Registry {
	r := framework.NewRegistry()
	registerLoading(r)
	registerNN(r)
	registerStoring(r)
	return r
}

// registerLoading installs model/dataset loading APIs.
func registerLoading(r *framework.Registry) {
	// Trojaned models (StegoNet) parse fine; the payload hides in the
	// weights and detonates at forward() time.
	r.Register(tensors.FileLoader(&framework.API{
		Name: "torch.load", Framework: Name,
		Syscalls: []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysClose, kernel.SysBrk, kernel.SysMmap},
	}, "simtorch: load needs a path", func(raw []byte) error {
		_, err := checkModel(stripTrojan(raw))
		return err
	}))

	r.Register(tensors.DownloadLoader(&framework.API{
		Name: "torch.hub.load", Framework: Name,
		Syscalls: []kernel.Sysno{kernel.SysSocket, kernel.SysConnect, kernel.SysRecvfrom, kernel.SysOpenat, kernel.SysWrite, kernel.SysRead, kernel.SysClose},
	}, "hub.pytorch.org", "/cache/hub/", "simtorch: hub.load needs a model name", "simtorch: hub has no model %q queued", false))

	r.Register(&framework.API{
		Name: "torchvision.datasets.MNIST", Framework: Name, TrueType: framework.TypeLoading,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysClose, kernel.SysGetcwd},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 1 {
				return nil, fmt.Errorf("simtorch: MNIST needs a root dir")
			}
			raw, err := ctx.FileRead(args[0].Str + "/mnist.bin")
			if err != nil {
				return nil, err
			}
			// Dataset file: flat float64s, 64 per sample (8x8 digits).
			n := len(raw) / 8
			if n == 0 || n%64 != 0 {
				return nil, fmt.Errorf("simtorch: bad mnist file (%d values)", n)
			}
			ctx.Charge(len(raw), 1)
			return tensors.Out(ctx, []int{n / 64, 64}, func(i int) float64 {
				return math.Float64frombits(binary.BigEndian.Uint64(raw[i*8:]))
			})
		},
	})

	// DataLoader is type-neutral: pure memory batching used right after
	// dataset loads and right before training steps (§A.6).
	r.Register(&framework.API{
		Name: "torch.utils.data.DataLoader", Framework: Name,
		TrueType: framework.TypeProcessing, Neutral: true,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			batch := 16
			if len(args) > 1 && args[1].Int > 0 {
				batch = int(args[1].Int)
			}
			sh := t.Shape()
			if len(sh) != 2 {
				return nil, fmt.Errorf("simtorch: DataLoader wants NxD dataset, got %v", sh)
			}
			if batch > sh[0] {
				batch = sh[0]
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 1)
			ctx.EmitMemOp()
			return tensors.Out(ctx, []int{batch, sh[1]}, vals.At)
		},
	})
}

// stripTrojan removes an embedded trigger blob from a model file so the
// clean part parses (trojans hide alongside valid weights).
func stripTrojan(raw []byte) []byte {
	if i := bytes.Index(raw, []byte("!!CVE:")); i >= 0 {
		return raw[:i]
	}
	return raw
}
