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
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// Name is the framework identifier.
const Name = "simcaffe"

func dpOps() []framework.Op {
	return []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageMem)}
}

func tensorArg(ctx *framework.Ctx, args []framework.Value, i int) (*object.Tensor, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("simcaffe: missing tensor argument %d", i)
	}
	return ctx.Tensor(args[i])
}

// fillOut allocates a result tensor of the given shape and encodes each
// element i as f(i) straight into it (object.Tensor.Fill).
func fillOut(ctx *framework.Ctx, shape []int, f func(i int) float64) (framework.Value, error) {
	id, t, err := ctx.NewTensor(shape...)
	if err != nil {
		return framework.Nil(), err
	}
	if err := t.Fill(f); err != nil {
		return framework.Nil(), err
	}
	return framework.Obj(id), nil
}

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

	readProto := func(name string, binaryFile bool) *framework.API {
		var api *framework.API
		api = &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeLoading,
			StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
			Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysLseek, kernel.SysClose, kernel.SysBrk},
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				if len(args) < 1 {
					return nil, fmt.Errorf("simcaffe: %s needs a path", name)
				}
				raw, err := ctx.FileRead(args[0].Str)
				if err != nil {
					return nil, err
				}
				if fired, err := ctx.MaybeExploit(api, raw); fired {
					return nil, err
				}
				if !binaryFile {
					if _, _, err := ParsePrototxt(string(raw)); err != nil {
						return nil, err
					}
				}
				id, _, err := ctx.NewBlob(raw)
				if err != nil {
					return nil, err
				}
				return []framework.Value{framework.Obj(id)}, nil
			},
		}
		return api
	}
	r.Register(readProto("caffe.ReadProtoFromTextFile", false))
	r.Register(readProto("caffe.ReadProtoFromBinaryFile", true))

	// Net.init builds weight tensors from a parsed prototxt blob. Each
	// layer's weights initialize to 0.1*(layerIndex+1).
	r.Register(&framework.API{
		Name: "caffe.Net", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysMmap}, Intensity: 1,
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
			v, err := fillOut(ctx, []int{total}, func(int) float64 {
				if left == 0 {
					li++
					left = sizes[li]
				}
				left--
				return 0.1 * float64(li+1)
			})
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(&framework.API{
		Name: "caffe.Net.Forward", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex, kernel.SysClockGettime}, Intensity: 10,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			w, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			in, err := tensorArg(ctx, args, 1)
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
			v, err := fillOut(ctx, []int{outs}, func(o int) float64 {
				s := 0.0
				for j := 0; j < n && o*n+j < vw.Len(); j++ {
					s += vw.At(o*n+j) * vi.At(j)
				}
				return math.Max(0, s)
			})
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(&framework.API{
		Name: "caffe.Net.Backward", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 10,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			out, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vo, err := out.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(out.Size(), 10)
			ctx.EmitMemOp()
			v, err := fillOut(ctx, out.Shape(), func(i int) float64 {
				return 2 * vo.At(i) // d(v^2)/dv
			})
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(&framework.API{
		Name: "caffe.Net.CopyTrainedLayersFrom", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			dst, err := tensorArg(ctx, args, 0)
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

	r.Register(&framework.API{
		Name: "caffe.SGDSolver.Step", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful: true, SharedState: true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysGetrandom}, Intensity: 2,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			w, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			g, err := tensorArg(ctx, args, 1)
			if err != nil {
				return nil, err
			}
			if w.Len() != g.Len() {
				return nil, fmt.Errorf("simcaffe: solver weight/grad mismatch")
			}
			vw, err := w.View()
			if err != nil {
				return nil, err
			}
			vg, err := g.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(w.Size(), 2)
			ctx.EmitMemOp()
			// The view of w keeps the weights as they were while w is
			// written.
			if err := w.Fill(func(i int) float64 { return vw.At(i) - 0.01*vg.At(i) }); err != nil {
				return nil, err
			}
			return []framework.Value{args[0]}, nil
		},
	})

	r.Register(&framework.API{
		Name: "caffe.Blob.Reshape", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			if len(args) < 3 {
				return nil, fmt.Errorf("simcaffe: Reshape needs rows, cols")
			}
			rows, cols := int(args[1].Int), int(args[2].Int)
			if rows*cols != t.Len() {
				return nil, fmt.Errorf("simcaffe: reshape %d to %dx%d", t.Len(), rows, cols)
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			v, err := fillOut(ctx, []int{rows, cols}, vals.At)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	writeProto := func(name string) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeStoring,
			StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
			Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysAccess},
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				if len(args) < 2 {
					return nil, fmt.Errorf("simcaffe: %s needs (tensor, path)", name)
				}
				t, err := tensorArg(ctx, args, 0)
				if err != nil {
					return nil, err
				}
				vals, err := t.View()
				if err != nil {
					return nil, err
				}
				raw := vals.Append(make([]byte, 0, t.Size()))
				ctx.Charge(len(raw), 1)
				return nil, ctx.FileWrite(args[1].Str, raw)
			},
		}
	}
	r.Register(writeProto("caffe.WriteProtoToTextFile"))
	r.Register(writeProto("caffe.hdf5_save_string"))
	r.Register(writeProto("caffe.Solver.Snapshot"))

	return r
}
