package simtorch

import (
	"encoding/binary"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/tensors"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// registerNN installs tensor math and neural-network APIs.
func registerNN(r *framework.Registry) {
	r.Register(&framework.API{
		Name: "torch.tensor", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysMmap}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			// torch.tensor(n, fill): builds a 1-D tensor of n copies of fill.
			n := 1
			if len(args) > 0 && args[0].Int > 0 {
				n = int(args[0].Int)
			}
			fill := 0.0
			if len(args) > 1 {
				fill = args[1].Float
			}
			ctx.EmitMemOp()
			return tensors.Out(ctx, []int{n}, func(int) float64 { return fill })
		},
	})

	elementwise := func(name string, f func(float64) float64) *framework.API {
		return tensors.Elementwise(&framework.API{Name: name, Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1}, f)
	}
	r.Register(elementwise("torch.relu", func(v float64) float64 { return math.Max(0, v) }))
	r.Register(elementwise("torch.sigmoid", func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }))
	r.Register(elementwise("torch.tanh", math.Tanh))
	r.Register(elementwise("torch.abs", math.Abs))
	r.Register(elementwise("torch.exp", math.Exp))
	r.Register(elementwise("torch.neg", func(v float64) float64 { return -v }))

	binop := func(name string, f func(a, b float64) float64) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeProcessing,
			StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				a, err := tensors.Arg(ctx, Name, args, 0)
				if err != nil {
					return nil, err
				}
				b, err := tensors.Arg(ctx, Name, args, 1)
				if err != nil {
					return nil, err
				}
				if a.Len() != b.Len() {
					return nil, fmt.Errorf("simtorch: %s length mismatch %d vs %d", name, a.Len(), b.Len())
				}
				va, err := a.View()
				if err != nil {
					return nil, err
				}
				vb, err := b.View()
				if err != nil {
					return nil, err
				}
				ctx.Charge(a.Size()+b.Size(), 1)
				ctx.EmitMemOp()
				return tensors.Out(ctx, a.Shape(), func(i int) float64 { return f(va.At(i), vb.At(i)) })
			},
		}
	}
	r.Register(binop("torch.add", func(a, b float64) float64 { return a + b }))
	r.Register(binop("torch.sub", func(a, b float64) float64 { return a - b }))
	r.Register(binop("torch.mul", func(a, b float64) float64 { return a * b }))

	r.Register(tensors.Matmul(&framework.API{
		Name: "torch.matmul", Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 8,
	}))

	r.Register(&framework.API{
		Name: "torch.nn.Conv2d", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 9,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			// Conv2d(input HxW, kernel KxK) -> valid convolution.
			in, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			kr, err := tensors.Arg(ctx, Name, args, 1)
			if err != nil {
				return nil, err
			}
			si, sk := in.Shape(), kr.Shape()
			if len(si) != 2 || len(sk) != 2 || sk[0] > si[0] || sk[1] > si[1] {
				return nil, fmt.Errorf("simtorch: conv2d %v with kernel %v", si, sk)
			}
			vi, err := in.View()
			if err != nil {
				return nil, err
			}
			vk, err := kr.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(in.Size(), float64(sk[0]*sk[1]))
			ctx.EmitMemOp()
			oh, ow := si[0]-sk[0]+1, si[1]-sk[1]+1
			return tensors.Out(ctx, []int{oh, ow}, func(o int) float64 {
				y, x := o/ow, o%ow
				s := 0.0
				for ky := 0; ky < sk[0]; ky++ {
					for kx := 0; kx < sk[1]; kx++ {
						s += vi.At((y+ky)*si[1]+x+kx) * vk.At(ky*sk[1]+kx)
					}
				}
				return s
			})
		},
	})

	pool := func(name string, avg bool) *framework.API {
		return tensors.Pool(&framework.API{Name: name, Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 4}, avg)
	}
	r.Register(pool("torch.max_pool2d", false))
	r.Register(pool("torch.avg_pool2d", true))

	r.Register(&framework.API{
		Name: "torch.softmax", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 2,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 2)
			ctx.EmitMemOp()
			maxV := math.Inf(-1)
			for i := range vals.Len() {
				maxV = math.Max(maxV, vals.At(i))
			}
			sum := 0.0
			for i := range vals.Len() {
				sum += math.Exp(vals.At(i) - maxV)
			}
			return tensors.Out(ctx, t.Shape(), func(i int) float64 { return math.Exp(vals.At(i)-maxV) / sum })
		},
	})

	reduce := func(name string, f func(object.TensorView) framework.Value) *framework.API {
		return tensors.Reduce(&framework.API{Name: name, Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1}, f)
	}
	r.Register(reduce("torch.mean", tensors.Mean))
	r.Register(reduce("torch.sum", tensors.Sum))
	r.Register(reduce("torch.norm", tensors.Norm))
	r.Register(reduce("torch.argmax", tensors.Argmax))

	r.Register(&framework.API{
		Name: "torch.flatten", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			return tensors.Out(ctx, []int{vals.Len()}, vals.At)
		},
	})

	r.Register(tensors.Reshape(&framework.API{
		Name: "torch.reshape", Framework: Name, Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
	}, "simtorch: reshape needs rows, cols", "simtorch: reshape %d elements to %dx%d"))

	r.Register(&framework.API{
		Name: "torch.combinations", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 2,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			n := vals.Len()
			if n < 2 {
				return nil, fmt.Errorf("simtorch: combinations needs >=2 elements")
			}
			if n > 64 {
				n = 64 // cap the quadratic blowup
			}
			ctx.Charge(t.Size(), 2)
			ctx.EmitMemOp()
			// Each pair (i, j), i < j, in order: vals[i], then vals[j].
			i, j := 0, 1
			return tensors.Out(ctx, []int{n * (n - 1) / 2, 2}, func(o int) float64 {
				if o%2 == 0 {
					return vals.At(i)
				}
				x := vals.At(j)
				if j++; j == n {
					i++
					j = i + 1
				}
				return x
			})
		},
	})

	// Module.forward runs a loaded model over an input tensor. Trojaned
	// models (StegoNet) detonate here, inside the data-processing agent.
	var fwdAPI *framework.API
	fwdAPI = &framework.API{
		Name: "torch.Module.forward", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: framework.DPOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex, kernel.SysClockGettime},
		Intensity: 16,
		CVEs:      []string{CVEStegoNet},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			model, err := ctx.Blob(args[0])
			if err != nil {
				return nil, err
			}
			// The model is only read, and its snapshot is reused until the
			// model is written.
			raw, err := object.Snapshot(model)
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(fwdAPI, raw); fired {
				return nil, err
			}
			walk, err := checkModel(stripTrojan(raw))
			if err != nil {
				return nil, err
			}
			in, err := tensors.Arg(ctx, Name, args, 1)
			if err != nil {
				return nil, err
			}
			in0, err := in.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(in.Size(), 16)
			ctx.EmitMemOp()
			// Each layer is a dense weight row-set: out_i = relu(sum w_ij x_j),
			// with layer sizes inferred from len(w) / len(x). The weights are
			// read in place from the model bytes and the first layer's input
			// through its view; only the layers' outputs are Go slices, and
			// the last one is encoded into the result.
			var x []float64 // the last layer's output; nil before the first
			nx := in0.Len()
			for walk.more() {
				li := walk.i
				w, _ := walk.next() // checkModel walked the framing already
				nw := len(w) / 8
				if nx == 0 || nw%nx != 0 {
					return nil, fmt.Errorf("simtorch: layer %d (%d weights) incompatible with input %d", li, nw, nx)
				}
				next := make([]float64, nw/nx)
				for i := range next {
					s := 0.0
					if x == nil {
						for j := range nx {
							s += weight(w, i*nx+j) * in0.At(j)
						}
					} else {
						for j := range x {
							s += weight(w, i*len(x)+j) * x[j]
						}
					}
					if li < walk.n-1 && s < 0 {
						s = 0 // ReLU on hidden layers
					}
					next[i] = s
				}
				x, nx = next, len(next)
			}
			xAt := in0.At
			if x != nil {
				xAt = func(i int) float64 { return x[i] }
			}
			return tensors.Out(ctx, []int{nx}, xAt)
		},
	}
	r.Register(fwdAPI)

	// SGD.step is stateful: it updates the weights tensor in place.
	r.Register(tensors.SGDStep(&framework.API{
		Name: "torch.optim.SGD.step", Framework: Name, Stateful: true, SharedState: true,
		Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
	}, "simtorch: SGD weight/grad mismatch", true))
}

// registerStoring installs model persistence APIs.
func registerStoring(r *framework.Registry) {
	r.Register(&framework.API{
		Name: "torch.save", Framework: Name, TrueType: framework.TypeStoring,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysUname},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("simtorch: save needs (tensor, path)")
			}
			t, err := tensors.Arg(ctx, Name, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 1)
			// EncodeModel of the one layer: the header, then the elements'
			// bytes as the tensor holds them.
			out := append(make([]byte, 0, 12+t.Size()), modelMagic...)
			out = binary.BigEndian.AppendUint32(out, 1)
			out = binary.BigEndian.AppendUint32(out, uint32(vals.Len()))
			return nil, ctx.FileWrite(args[1].Str, vals.Append(out))
		},
	})

	r.Register(&framework.API{
		Name: "torch.utils.tensorboard.SummaryWriter", Framework: Name, TrueType: framework.TypeStoring,
		Stateful:  true,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysWrite, kernel.SysClose, kernel.SysMkdir, kernel.SysLseek},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("simtorch: SummaryWriter needs (dir, scalar)")
			}
			line := fmt.Sprintf("scalar %g\n", args[1].Float)
			return nil, ctx.FileAppend(args[0].Str+"/events.log", []byte(line))
		},
	})
}
