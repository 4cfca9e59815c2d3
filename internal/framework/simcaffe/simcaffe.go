// Package simcaffe is a miniature Caffe: prototxt-style model definition
// loading, a layered Net with Forward/Backward passes, trained-weight
// copying, a stateful SGD solver, and HDF5-style persistence — the caffe
// surface the paper's three Caffe applications use (Table 6).
//
// Model text format ("prototxt"): one line per layer, "name size", where
// size is the number of float64 weights; weights start at 0.1 per layer
// index. Binary weights use the same float64 big-endian framing as the
// other frameworks.
package simcaffe

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/tensors"
	"freepart.dev/freepart/internal/kernel"
)

// Name is the framework identifier.
const Name = "simcaffe"

// ParsePrototxt parses the layer definition text into (names, sizes).
func ParsePrototxt(text string) (names []string, sizes []int, err error) {
	for ln, line := range strings.Split(strings.TrimSpace(text), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			return nil, nil, fmt.Errorf("simcaffe: prototxt line %d: %q", ln+1, line)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil || n <= 0 {
			return nil, nil, fmt.Errorf("simcaffe: prototxt line %d: bad size %q", ln+1, parts[1])
		}
		names = append(names, parts[0])
		sizes = append(sizes, n)
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("simcaffe: empty prototxt")
	}
	return names, sizes, nil
}

// Registry builds the simcaffe API registry.
func Registry() *framework.Registry {
	r := framework.NewRegistry()

	readProto := func(name string, check func([]byte) error) *framework.API {
		return tensors.FileLoader(&framework.API{
			Name: name, Framework: Name,
			Syscalls: []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysLseek, kernel.SysClose, kernel.SysBrk},
		}, "simcaffe: "+name+" needs a path", check)
	}
	r.Register(readProto("caffe.ReadProtoFromTextFile", func(raw []byte) error {
		_, _, err := ParsePrototxt(string(raw))
		return err
	}))
	r.Register(readProto("caffe.ReadProtoFromBinaryFile", nil))

	// Net.init builds weight tensors from a parsed prototxt blob. Each
	// layer's weights initialize to 0.1*(layerIndex+1).
	r.Register(&framework.API{
		Name: "caffe.Net", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysMmap}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			proto, err := ctx.Blob(args[0])
			if err != nil {
				return nil, err
			}
			raw, err := proto.Bytes()
			if err != nil {
				return nil, err
			}
			_, sizes, err := ParsePrototxt(string(raw))
			if err != nil {
				return nil, err
			}
			total := 0
			for _, s := range sizes {
				total += s
			}
			ctx.EmitMemOp()
			// Layer li's sizes[li] weights, one layer after another.
			li, left := 0, sizes[0]
			return tensors.Out(ctx, []int{total}, func(int) float64 {
				if left == 0 {
					li++
					left = sizes[li]
				}
				left--
				return 0.1 * float64(li+1)
			})
		},
	})

	r.Register(&framework.API{
		Name: "caffe.Net.Forward", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex, kernel.SysClockGettime}, Intensity: 10,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			w, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			in, err := tensors.Arg(ctx, Name, args, 1)
			if err != nil {
				return nil, err
			}
			vw, err := w.View()
			if err != nil {
				return nil, err
			}
			vi, err := in.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(w.Size()+in.Size(), 10)
			ctx.EmitMemOp()
			// Dot-product score per weight chunk of input length.
			n := vi.Len()
			if n == 0 {
				return nil, fmt.Errorf("simcaffe: empty input")
			}
			outs := max(vw.Len()/n, 1)
			return tensors.Out(ctx, []int{outs}, func(o int) float64 {
				s := 0.0
				for j := 0; j < n && o*n+j < vw.Len(); j++ {
					s += vw.At(o*n+j) * vi.At(j)
				}
				return math.Max(0, s)
			})
		},
	})

	r.Register(tensors.Elementwise(&framework.API{
		Name: "caffe.Net.Backward", Framework: Name, Stateful: true,
		Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 10,
	}, func(v float64) float64 { return 2 * v })) // d(v^2)/dv

	r.Register(&framework.API{
		Name: "caffe.Net.CopyTrainedLayersFrom", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			dst, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			src, err := ctx.Blob(args[1])
			if err != nil {
				return nil, err
			}
			raw, err := src.Bytes()
			if err != nil {
				return nil, err
			}
			if len(raw)%8 != 0 {
				return nil, fmt.Errorf("simcaffe: weight blob %d bytes", len(raw))
			}
			n := len(raw) / 8
			if n > dst.Len() {
				n = dst.Len()
			}
			vals, err := dst.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(len(raw), 1)
			ctx.EmitMemOp()
			// The first n weights come from the blob, the rest stay.
			if err := dst.Fill(func(i int) float64 {
				if i < n {
					return math.Float64frombits(binary.BigEndian.Uint64(raw[i*8:]))
				}
				return vals.At(i)
			}); err != nil {
				return nil, err
			}
			return []framework.Value{args[0]}, nil
		},
	})

	r.Register(tensors.SGDStep(&framework.API{
		Name: "caffe.SGDSolver.Step", Framework: Name, Stateful: true, SharedState: true,
		Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysGetrandom}, Intensity: 2,
	}, "simcaffe: solver weight/grad mismatch", false))

	r.Register(tensors.Reshape(&framework.API{
		Name: "caffe.Blob.Reshape", Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
	}, "simcaffe: Reshape needs rows, cols", "simcaffe: reshape %d to %dx%d"))

	for _, name := range []string{"caffe.WriteProtoToTextFile", "caffe.hdf5_save_string", "caffe.Solver.Snapshot"} {
		r.Register(tensors.Writer(&framework.API{
			Name: name, Framework: Name,
			Syscalls: []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysAccess},
		}, "simcaffe: "+name+" needs (tensor, path)"))
	}

	return r
}
