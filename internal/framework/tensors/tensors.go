// Package tensors holds the tensor kernels that simtorch, simflow and
// simcaffe share. Each builder completes one API from the metadata its
// framework states (name, framework, syscalls, intensity, CVEs and flags)
// and the few parameters that set that API apart, such as its error text:
// it adds the kernel's true type, static ops and implementation.
//
// Every kernel runs in one order: resolve its operands, check their
// shapes, take their views, check for a crafted tensor (only an API with
// CVEs does), charge the compute, emit its data-flow op, and fill its
// output. Loads, stores, virtual charges and chaos draws follow that order.
package tensors

import (
	"errors"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// Arg resolves args[i] to a tensor; fw prefixes the error when args has no
// such argument.
func Arg(ctx *framework.Ctx, fw string, args []framework.Value, i int) (*object.Tensor, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("%s: missing tensor argument %d", fw, i)
	}
	return ctx.Tensor(args[i])
}

// Out allocates a result tensor of the given shape, encodes each element i
// as f(i) straight into it (object.Tensor.Fill), and returns it as a
// kernel's one result.
func Out(ctx *framework.Ctx, shape []int, f func(i int) float64) ([]framework.Value, error) {
	id, t, err := ctx.NewTensor(shape...)
	if err != nil {
		return nil, err
	}
	if err := t.Fill(f); err != nil {
		return nil, err
	}
	return []framework.Value{framework.Obj(id)}, nil
}

// Exploit fires a trigger embedded in tensor values: crafted tensors carry
// the trigger encoded as a run of values spelling the magic bytes, one byte
// value per element. The leading run of byte values is counted first and
// copied out only when it is not empty, so a tensor that stops the scan at
// its first element allocates nothing.
func Exploit(ctx *framework.Ctx, api *framework.API, vals object.TensorView) (bool, error) {
	n := 0
	for n < vals.Len() && isByte(vals.At(n)) {
		n++
	}
	var raw []byte
	if n > 0 {
		raw = make([]byte, n)
		for i := range raw {
			raw[i] = byte(vals.At(i))
		}
	}
	return ctx.MaybeExploit(api, raw)
}

// isByte reports whether v is a whole number a byte holds.
func isByte(v float64) bool { return v >= 0 && v <= 255 && v == math.Trunc(v) }

// complete gives api the kernel's true type, static ops and
// implementation.
func complete(api *framework.API, typ framework.APIType, ops []framework.Op, impl framework.Impl) *framework.API {
	api.TrueType, api.StaticOps, api.Impl = typ, ops, impl
	return api
}

// Elementwise maps f over the elements of args[0], charged at the API's
// intensity.
func Elementwise(api *framework.API, f func(float64) float64) *framework.API {
	fw, intensity := api.Framework, api.Intensity
	return complete(api, framework.TypeProcessing, framework.DPOps(), func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		t, err := Arg(ctx, fw, args, 0)
		if err != nil {
			return nil, err
		}
		vals, err := t.View()
		if err != nil {
			return nil, err
		}
		ctx.Charge(t.Size(), intensity)
		ctx.EmitMemOp()
		return Out(ctx, t.Shape(), func(i int) float64 { return f(vals.At(i)) })
	})
}

// Pool halves both dimensions of the matrix args[0], each output the
// average (avg) or the maximum of its 2×2 block. An API with CVEs checks
// the input's values for a crafted tensor.
func Pool(api *framework.API, avg bool) *framework.API {
	fw, name, intensity, exploit := api.Framework, api.Name, api.Intensity, len(api.CVEs) > 0
	return complete(api, framework.TypeProcessing, framework.DPOps(), func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		in, err := Arg(ctx, fw, args, 0)
		if err != nil {
			return nil, err
		}
		si := in.Shape()
		if len(si) != 2 || si[0] < 2 || si[1] < 2 {
			return nil, fmt.Errorf("%s: %s input %v", fw, name, si)
		}
		vi, err := in.View()
		if err != nil {
			return nil, err
		}
		if exploit {
			if fired, err := Exploit(ctx, api, vi); fired {
				return nil, err
			}
		}
		ctx.Charge(in.Size(), intensity)
		ctx.EmitMemOp()
		ow := si[1] / 2
		return Out(ctx, []int{si[0] / 2, ow}, func(o int) float64 {
			y, x := o/ow, o%ow
			a := vi.At((2*y)*si[1] + 2*x)
			b := vi.At((2*y)*si[1] + 2*x + 1)
			c := vi.At((2*y+1)*si[1] + 2*x)
			d := vi.At((2*y+1)*si[1] + 2*x + 1)
			if avg {
				return (a + b + c + d) / 4
			}
			return math.Max(math.Max(a, b), math.Max(c, d))
		})
	})
}

// Matmul multiplies the matrices args[0] and args[1], charged at the inner
// dimension. An API with CVEs checks the first operand's values for a
// crafted tensor, before it views the second.
func Matmul(api *framework.API) *framework.API {
	fw, exploit := api.Framework, len(api.CVEs) > 0
	return complete(api, framework.TypeProcessing, framework.DPOps(), func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		a, err := Arg(ctx, fw, args, 0)
		if err != nil {
			return nil, err
		}
		b, err := Arg(ctx, fw, args, 1)
		if err != nil {
			return nil, err
		}
		sa, sb := a.Shape(), b.Shape()
		if len(sa) != 2 || len(sb) != 2 || sa[1] != sb[0] {
			return nil, fmt.Errorf("%s: matmul %v x %v", fw, sa, sb)
		}
		va, err := a.View()
		if err != nil {
			return nil, err
		}
		if exploit {
			if fired, err := Exploit(ctx, api, va); fired {
				return nil, err
			}
		}
		vb, err := b.View()
		if err != nil {
			return nil, err
		}
		ctx.Charge(a.Size()+b.Size(), float64(sa[1]))
		ctx.EmitMemOp()
		k, n := sa[1], sb[1]
		return Out(ctx, []int{sa[0], n}, func(o int) float64 {
			i, j := o/n, o%n
			s := 0.0
			for x := 0; x < k; x++ {
				s += va.At(i*k+x) * vb.At(x*n+j)
			}
			return s
		})
	})
}

// Reduce returns f of the elements of args[0], charged at the API's
// intensity.
func Reduce(api *framework.API, f func(object.TensorView) framework.Value) *framework.API {
	fw, intensity := api.Framework, api.Intensity
	return complete(api, framework.TypeProcessing, framework.DPOps(), func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		t, err := Arg(ctx, fw, args, 0)
		if err != nil {
			return nil, err
		}
		vals, err := t.View()
		if err != nil {
			return nil, err
		}
		ctx.Charge(t.Size(), intensity)
		ctx.EmitMemOp()
		return []framework.Value{f(vals)}, nil
	})
}

// sum adds a view's elements in order.
func sum(v object.TensorView) float64 {
	s := 0.0
	for i := range v.Len() {
		s += v.At(i)
	}
	return s
}

// Sum reduces to the elements' sum.
func Sum(v object.TensorView) framework.Value { return framework.Float64(sum(v)) }

// Mean reduces to the elements' mean.
func Mean(v object.TensorView) framework.Value {
	return framework.Float64(sum(v) / float64(v.Len()))
}

// Norm reduces to the elements' Euclidean norm.
func Norm(v object.TensorView) framework.Value {
	s := 0.0
	for i := range v.Len() {
		s += v.At(i) * v.At(i)
	}
	return framework.Float64(math.Sqrt(s))
}

// Argmax reduces to the index of the first largest element, an integer.
func Argmax(v object.TensorView) framework.Value {
	best := 0
	for i := range v.Len() {
		if v.At(i) > v.At(best) {
			best = i
		}
	}
	return framework.Int64(int64(best))
}

// Reshape copies args[0] into a new args[1]×args[2] tensor. needs is the
// error when the dimensions are missing; mismatch formats the element
// count, rows and cols when they do not match.
func Reshape(api *framework.API, needs, mismatch string) *framework.API {
	fw := api.Framework
	return complete(api, framework.TypeProcessing, framework.DPOps(), func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		t, err := Arg(ctx, fw, args, 0)
		if err != nil {
			return nil, err
		}
		if len(args) < 3 {
			return nil, errors.New(needs)
		}
		rows, cols := int(args[1].Int), int(args[2].Int)
		if rows*cols != t.Len() {
			return nil, fmt.Errorf(mismatch, t.Len(), rows, cols)
		}
		vals, err := t.View()
		if err != nil {
			return nil, err
		}
		ctx.EmitMemOp()
		return Out(ctx, []int{rows, cols}, vals.At)
	})
}

// SGDStep steps the weights args[0] against the gradient args[1] in place,
// w -= lr*g, charged at the API's intensity, and returns args[0]. lr is
// 0.01, or args[2] when lrArg and it is positive. mismatch is the error
// when the two differ in length.
func SGDStep(api *framework.API, mismatch string, lrArg bool) *framework.API {
	fw, intensity := api.Framework, api.Intensity
	return complete(api, framework.TypeProcessing, framework.DPOps(), func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		w, err := Arg(ctx, fw, args, 0)
		if err != nil {
			return nil, err
		}
		g, err := Arg(ctx, fw, args, 1)
		if err != nil {
			return nil, err
		}
		if w.Len() != g.Len() {
			return nil, errors.New(mismatch)
		}
		lr := 0.01
		if lrArg && len(args) > 2 && args[2].Float > 0 {
			lr = args[2].Float
		}
		vw, err := w.View()
		if err != nil {
			return nil, err
		}
		vg, err := g.View()
		if err != nil {
			return nil, err
		}
		ctx.Charge(w.Size(), intensity)
		ctx.EmitMemOp()
		// The view of w keeps the weights as they were while w is written.
		if err := w.Fill(func(i int) float64 { return vw.At(i) - lr*vg.At(i) }); err != nil {
			return nil, err
		}
		return []framework.Value{args[0]}, nil
	})
}

// Writer completes api as a storing API that writes the elements of
// args[0], 8 big-endian bytes each as the tensor holds them, to the file
// args[1]. needs is the error when either argument is missing.
func Writer(api *framework.API, needs string) *framework.API {
	fw := api.Framework
	ops := []framework.Op{framework.WriteOp(framework.StorageFile, framework.StorageMem)}
	return complete(api, framework.TypeStoring, ops, func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if len(args) < 2 {
			return nil, errors.New(needs)
		}
		t, err := Arg(ctx, fw, args, 0)
		if err != nil {
			return nil, err
		}
		vals, err := t.View()
		if err != nil {
			return nil, err
		}
		ctx.Charge(t.Size(), 1)
		return nil, ctx.FileWrite(args[1].Str, vals.Append(make([]byte, 0, t.Size())))
	})
}

// FileLoader completes api as a loading API that makes a blob of the file
// at path args[0], once check, when not nil, accepts its bytes. needs is
// the error when the path is missing.
func FileLoader(api *framework.API, needs string, check func([]byte) error) *framework.API {
	ops := []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)}
	return complete(api, framework.TypeLoading, ops, func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if len(args) < 1 {
			return nil, errors.New(needs)
		}
		raw, err := ctx.FileRead(args[0].Str)
		if err != nil {
			return nil, err
		}
		if check != nil {
			if err := check(raw); err != nil {
				return nil, err
			}
		}
		id, _, err := ctx.NewBlob(raw)
		if err != nil {
			return nil, err
		}
		return []framework.Value{framework.Obj(id)}, nil
	})
}

// DownloadLoader completes api as a loading API that connects to host,
// receives the download queued there, stages it in the file dir+args[0]
// and reads that back as a blob: the memory copy via file of §4.2.1, whose
// file round trip static analysis sees and the reduction collapses. needs
// is the error when the name is missing, and missing formats the name when
// nothing is queued. withPath returns the staged file's path after the
// blob.
func DownloadLoader(api *framework.API, host, dir, needs, missing string, withPath bool) *framework.API {
	api.FDLabels = map[kernel.Sysno][]string{kernel.SysConnect: {host}}
	return complete(api, framework.TypeLoading, []framework.Op{
		framework.WriteOp(framework.StorageMem, framework.StorageDev),
		framework.WriteOp(framework.StorageFile, framework.StorageMem),
		framework.WriteOp(framework.StorageMem, framework.StorageFile),
	}, func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		if len(args) < 1 {
			return nil, errors.New(needs)
		}
		if err := ctx.K.NetConnect(ctx.P, host); err != nil {
			return nil, err
		}
		data, ok, err := ctx.NetDownload(host)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf(missing, args[0].Str)
		}
		path := dir + args[0].Str
		if err := ctx.FileWrite(path, data); err != nil {
			return nil, err
		}
		raw, err := ctx.FileRead(path)
		if err != nil {
			return nil, err
		}
		id, _, err := ctx.NewBlob(raw)
		if err != nil {
			return nil, err
		}
		if withPath {
			return []framework.Value{framework.Obj(id), framework.Str(path)}, nil
		}
		return []framework.Value{framework.Obj(id)}, nil
	})
}
