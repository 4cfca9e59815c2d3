package simtorch

import (
	"fmt"
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// registerNN installs tensor math and neural-network APIs.
func registerNN(r *framework.Registry) {
	r.Register(&framework.API{
		Name: "torch.tensor", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysMmap}, Intensity: 1,
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
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = fill
			}
			ctx.EmitMemOp()
			v, err := newOut(ctx, []int{n}, vals)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(elementwise("torch.relu", func(v float64) float64 { return math.Max(0, v) }))
	r.Register(elementwise("torch.sigmoid", func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }))
	r.Register(elementwise("torch.tanh", math.Tanh))
	r.Register(elementwise("torch.abs", math.Abs))
	r.Register(elementwise("torch.exp", math.Exp))
	r.Register(elementwise("torch.neg", func(v float64) float64 { return -v }))

	binop := func(name string, f func(a, b float64) float64) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeProcessing,
			StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				a, err := tensorArg(ctx, args, 0)
				if err != nil {
					return nil, err
				}
				b, err := tensorArg(ctx, args, 1)
				if err != nil {
					return nil, err
				}
				if a.Len() != b.Len() {
					return nil, fmt.Errorf("simtorch: %s length mismatch %d vs %d", name, a.Len(), b.Len())
				}
				va, err := a.Values()
				if err != nil {
					return nil, err
				}
				vb, err := b.Values()
				if err != nil {
					return nil, err
				}
				ctx.Charge(a.Size()+b.Size(), 1)
				ctx.EmitMemOp()
				out := make([]float64, len(va))
				for i := range va {
					out[i] = f(va[i], vb[i])
				}
				v, err := newOut(ctx, a.Shape(), out)
				if err != nil {
					return nil, err
				}
				return []framework.Value{v}, nil
			},
		}
	}
	r.Register(binop("torch.add", func(a, b float64) float64 { return a + b }))
	r.Register(binop("torch.sub", func(a, b float64) float64 { return a - b }))
	r.Register(binop("torch.mul", func(a, b float64) float64 { return a * b }))

	r.Register(&framework.API{
		Name: "torch.matmul", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 8,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			a, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			b, err := tensorArg(ctx, args, 1)
			if err != nil {
				return nil, err
			}
			sa, sb := a.Shape(), b.Shape()
			if len(sa) != 2 || len(sb) != 2 || sa[1] != sb[0] {
				return nil, fmt.Errorf("simtorch: matmul %v x %v", sa, sb)
			}
			va, err := a.Values()
			if err != nil {
				return nil, err
			}
			vb, err := b.Values()
			if err != nil {
				return nil, err
			}
			ctx.Charge(a.Size()+b.Size(), float64(sa[1]))
			ctx.EmitMemOp()
			m, k, n := sa[0], sa[1], sb[1]
			out := make([]float64, m*n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					s := 0.0
					for x := 0; x < k; x++ {
						s += va[i*k+x] * vb[x*n+j]
					}
					out[i*n+j] = s
				}
			}
			v, err := newOut(ctx, []int{m, n}, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(&framework.API{
		Name: "torch.nn.Conv2d", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex}, Intensity: 9,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			// Conv2d(input HxW, kernel KxK) -> valid convolution.
			in, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			kr, err := tensorArg(ctx, args, 1)
			if err != nil {
				return nil, err
			}
			si, sk := in.Shape(), kr.Shape()
			if len(si) != 2 || len(sk) != 2 || sk[0] > si[0] || sk[1] > si[1] {
				return nil, fmt.Errorf("simtorch: conv2d %v with kernel %v", si, sk)
			}
			vi, err := in.Values()
			if err != nil {
				return nil, err
			}
			vk, err := kr.Values()
			if err != nil {
				return nil, err
			}
			ctx.Charge(in.Size(), float64(sk[0]*sk[1]))
			ctx.EmitMemOp()
			oh, ow := si[0]-sk[0]+1, si[1]-sk[1]+1
			out := make([]float64, oh*ow)
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					s := 0.0
					for ky := 0; ky < sk[0]; ky++ {
						for kx := 0; kx < sk[1]; kx++ {
							s += vi[(y+ky)*si[1]+x+kx] * vk[ky*sk[1]+kx]
						}
					}
					out[y*ow+x] = s
				}
			}
			v, err := newOut(ctx, []int{oh, ow}, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	pool := func(name string, avg bool) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeProcessing,
			StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 4,
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				in, err := tensorArg(ctx, args, 0)
				if err != nil {
					return nil, err
				}
				si := in.Shape()
				if len(si) != 2 || si[0] < 2 || si[1] < 2 {
					return nil, fmt.Errorf("simtorch: %s input %v", name, si)
				}
				vi, err := in.Values()
				if err != nil {
					return nil, err
				}
				ctx.Charge(in.Size(), 4)
				ctx.EmitMemOp()
				oh, ow := si[0]/2, si[1]/2
				out := make([]float64, oh*ow)
				for y := 0; y < oh; y++ {
					for x := 0; x < ow; x++ {
						a := vi[(2*y)*si[1]+2*x]
						b := vi[(2*y)*si[1]+2*x+1]
						c := vi[(2*y+1)*si[1]+2*x]
						d := vi[(2*y+1)*si[1]+2*x+1]
						if avg {
							out[y*ow+x] = (a + b + c + d) / 4
						} else {
							out[y*ow+x] = math.Max(math.Max(a, b), math.Max(c, d))
						}
					}
				}
				v, err := newOut(ctx, []int{oh, ow}, out)
				if err != nil {
					return nil, err
				}
				return []framework.Value{v}, nil
			},
		}
	}
	r.Register(pool("torch.max_pool2d", false))
	r.Register(pool("torch.avg_pool2d", true))

	r.Register(&framework.API{
		Name: "torch.softmax", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 2,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.Values()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 2)
			ctx.EmitMemOp()
			maxV := math.Inf(-1)
			for _, v := range vals {
				maxV = math.Max(maxV, v)
			}
			sum := 0.0
			out := make([]float64, len(vals))
			for i, v := range vals {
				out[i] = math.Exp(v - maxV)
				sum += out[i]
			}
			for i := range out {
				out[i] /= sum
			}
			v, err := newOut(ctx, t.Shape(), out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	reduce := func(name string, f func(vals []float64) float64) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeProcessing,
			StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				t, err := tensorArg(ctx, args, 0)
				if err != nil {
					return nil, err
				}
				vals, err := t.Values()
				if err != nil {
					return nil, err
				}
				ctx.Charge(t.Size(), 1)
				ctx.EmitMemOp()
				return []framework.Value{framework.Float64(f(vals))}, nil
			},
		}
	}
	r.Register(reduce("torch.mean", func(vals []float64) float64 {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}))
	r.Register(reduce("torch.sum", func(vals []float64) float64 {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	}))
	r.Register(reduce("torch.norm", func(vals []float64) float64 {
		s := 0.0
		for _, v := range vals {
			s += v * v
		}
		return math.Sqrt(s)
	}))

	r.Register(&framework.API{
		Name: "torch.argmax", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.Values()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 1)
			ctx.EmitMemOp()
			best := 0
			for i, v := range vals {
				if v > vals[best] {
					best = i
				}
			}
			return []framework.Value{framework.Int64(int64(best))}, nil
		},
	})

	r.Register(&framework.API{
		Name: "torch.flatten", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.Values()
			if err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			v, err := newOut(ctx, []int{len(vals)}, vals)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(&framework.API{
		Name: "torch.reshape", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			if len(args) < 3 {
				return nil, fmt.Errorf("simtorch: reshape needs rows, cols")
			}
			rows, cols := int(args[1].Int), int(args[2].Int)
			if rows*cols != t.Len() {
				return nil, fmt.Errorf("simtorch: reshape %d elements to %dx%d", t.Len(), rows, cols)
			}
			vals, err := t.Values()
			if err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			v, err := newOut(ctx, []int{rows, cols}, vals)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(&framework.API{
		Name: "torch.combinations", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 2,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.Values()
			if err != nil {
				return nil, err
			}
			n := len(vals)
			if n < 2 {
				return nil, fmt.Errorf("simtorch: combinations needs >=2 elements")
			}
			if n > 64 {
				n = 64 // cap the quadratic blowup
			}
			ctx.Charge(t.Size(), 2)
			ctx.EmitMemOp()
			var out []float64
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					out = append(out, vals[i], vals[j])
				}
			}
			v, err := newOut(ctx, []int{len(out) / 2, 2}, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	// Module.forward runs a loaded model over an input tensor. Trojaned
	// models (StegoNet) detonate here, inside the data-processing agent.
	var fwdAPI *framework.API
	fwdAPI = &framework.API{
		Name: "torch.Module.forward", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful:  true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk, kernel.SysFutex, kernel.SysClockGettime},
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
			in, err := tensorArg(ctx, args, 1)
			if err != nil {
				return nil, err
			}
			x, err := in.Values()
			if err != nil {
				return nil, err
			}
			ctx.Charge(in.Size(), 16)
			ctx.EmitMemOp()
			// Each layer is a dense weight row-set: out_i = relu(sum w_ij x_j),
			// with layer sizes inferred from len(w) / len(x). The weights are
			// read in place from the model bytes.
			for walk.more() {
				li := walk.i
				w, _ := walk.next() // checkModel walked the framing already
				nw := len(w) / 8
				if len(x) == 0 || nw%len(x) != 0 {
					return nil, fmt.Errorf("simtorch: layer %d (%d weights) incompatible with input %d", li, nw, len(x))
				}
				outN := nw / len(x)
				next := make([]float64, outN)
				for i := 0; i < outN; i++ {
					s := 0.0
					for j := range x {
						s += weight(w, i*len(x)+j) * x[j]
					}
					if li < walk.n-1 && s < 0 {
						s = 0 // ReLU on hidden layers
					}
					next[i] = s
				}
				x = next
			}
			v, err := newOut(ctx, []int{len(x)}, x)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	}
	r.Register(fwdAPI)

	// SGD.step is stateful: it updates the weights tensor in place.
	r.Register(&framework.API{
		Name: "torch.optim.SGD.step", Framework: Name, TrueType: framework.TypeProcessing,
		Stateful: true, SharedState: true,
		StaticOps: dpOps(), Syscalls: []kernel.Sysno{kernel.SysBrk}, Intensity: 1,
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
				return nil, fmt.Errorf("simtorch: SGD weight/grad mismatch")
			}
			lr := 0.01
			if len(args) > 2 && args[2].Float > 0 {
				lr = args[2].Float
			}
			vw, err := w.Values()
			if err != nil {
				return nil, err
			}
			vg, err := g.Values()
			if err != nil {
				return nil, err
			}
			ctx.Charge(w.Size(), 1)
			ctx.EmitMemOp()
			for i := range vw {
				vw[i] -= lr * vg[i]
			}
			if err := w.SetValues(vw); err != nil {
				return nil, err
			}
			return []framework.Value{args[0]}, nil
		},
	})
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
			t, err := tensorArg(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			vals, err := t.Values()
			if err != nil {
				return nil, err
			}
			ctx.Charge(t.Size(), 1)
			return nil, ctx.FileWrite(args[1].Str, EncodeModel([][]float64{vals}))
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
