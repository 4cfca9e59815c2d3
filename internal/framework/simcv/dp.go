package simcv

import (
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// dpSyscalls is the default syscall footprint of a compute-only API.
func dpSyscalls(extra ...kernel.Sysno) []kernel.Sysno {
	return append([]kernel.Sysno{kernel.SysBrk}, extra...)
}

// unaryFn transforms one image into another. args carries the API's full
// argument list (args[0] is the input mat). data is the input's read-only
// view (matView): fn must not write it.
type unaryFn func(m *object.Mat, data []byte, args []framework.Value) (rows, cols, ch int, out []byte, err error)

// unaryAPI builds a data-processing API over one input mat: resolve the
// mat, check for crafted exploit inputs, charge compute, run fn, and
// materialize the result mat.
func unaryAPI(name string, intensity float64, cves []string, syscalls []kernel.Sysno, fn unaryFn) *framework.API {
	var api *framework.API
	api = &framework.API{
		Name: name, Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(),
		Syscalls:  syscalls,
		Intensity: intensity,
		CVEs:      cves,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs(name, args, 1); err != nil {
				return nil, err
			}
			m, data, err := matView(ctx, args[0])
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(api, data); fired {
				return nil, err
			}
			ctx.Charge(len(data), intensity)
			ctx.EmitMemOp()
			rows, cols, ch, out, err := fn(m, data, args)
			if err != nil {
				return nil, err
			}
			v, err := outMat(ctx, rows, cols, ch, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	}
	return api
}

// binaryFn combines two images, reading their views da and db.
type binaryFn func(a, b *object.Mat, da, db []byte, args []framework.Value) (rows, cols, ch int, out []byte, err error)

// binaryAPI builds a data-processing API over two input mats.
func binaryAPI(name string, intensity float64, cves []string, syscalls []kernel.Sysno, fn binaryFn) *framework.API {
	var api *framework.API
	api = &framework.API{
		Name: name, Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(),
		Syscalls:  syscalls,
		Intensity: intensity,
		CVEs:      cves,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs(name, args, 2); err != nil {
				return nil, err
			}
			a, da, err := matView(ctx, args[0])
			if err != nil {
				return nil, err
			}
			b, db, err := matView(ctx, args[1])
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(api, da); fired {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(api, db); fired {
				return nil, err
			}
			ctx.Charge(len(da)+len(db), intensity)
			ctx.EmitMemOp()
			rows, cols, ch, out, err := fn(a, b, da, db, args)
			if err != nil {
				return nil, err
			}
			v, err := outMat(ctx, rows, cols, ch, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	}
	return api
}

// reduceAPI builds a data-processing API that reduces an image to scalars
// or small tensors (the ctx is threaded through for tensor allocation via
// closures over it; fn receives results builder helpers instead).
func reduceAPI(name string, intensity float64, cves []string, syscalls []kernel.Sysno, fn func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error)) *framework.API {
	var api *framework.API
	api = &framework.API{
		Name: name, Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(),
		Syscalls:  syscalls,
		Intensity: intensity,
		CVEs:      cves,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs(name, args, 1); err != nil {
				return nil, err
			}
			m, data, err := matView(ctx, args[0])
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(api, data); fired {
				return nil, err
			}
			ctx.Charge(len(data), intensity)
			ctx.EmitMemOp()
			return fn(ctx, m, data, args)
		},
	}
	return api
}

// grayOf collapses a multi-channel image to single-channel by averaging.
// A one-channel image is its own gray image: grayOf returns data itself, a
// kernel's read-only view, so its callers only read what it returns.
func grayOf(rows, cols, ch int, data []byte) []byte {
	if ch == 1 {
		return data
	}
	out := make([]byte, rows*cols)
	for i := 0; i < rows*cols; i++ {
		sum := 0
		for c := 0; c < ch; c++ {
			sum += int(data[i*ch+c])
		}
		out[i] = byte(sum / ch)
	}
	return out
}

// pix reads data[(r*cols+c)*ch+k] with border clamping.
func pix(data []byte, rows, cols, ch, r, c, k int) byte {
	if r < 0 {
		r = 0
	}
	if r >= rows {
		r = rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= cols {
		c = cols - 1
	}
	return data[(r*cols+c)*ch+k]
}
