package simcv

import (
	"fmt"
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// registerPoint installs per-pixel (point) operations.
func registerPoint(r *framework.Registry) {
	r.Register(unaryAPI("cv.threshold", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			thresh := byte(128)
			if len(args) > 1 {
				thresh = byte(args[1].Int)
			}
			out := make([]byte, len(data))
			for i, v := range data {
				if v > thresh {
					out[i] = 255
				}
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.adaptiveThreshold", 9, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			g := grayOf(rows, cols, ch, data)
			out := make([]byte, rows*cols)
			for rr := 0; rr < rows; rr++ {
				for cc := 0; cc < cols; cc++ {
					sum, n := 0, 0
					for dr := -1; dr <= 1; dr++ {
						for dc := -1; dc <= 1; dc++ {
							sum += int(pix(g, rows, cols, 1, rr+dr, cc+dc, 0))
							n++
						}
					}
					if int(g[rr*cols+cc])*n > sum {
						out[rr*cols+cc] = 255
					}
				}
			}
			return rows, cols, 1, out, nil
		}))

	r.Register(unaryAPI("cv.bitwise_not", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			out := make([]byte, len(data))
			for i, v := range data {
				out[i] = ^v
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	sameShape := func(a, b *object.Mat, da, db []byte) error {
		if len(da) != len(db) || a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.Channels() != b.Channels() {
			return fmt.Errorf("simcv: shape mismatch %v vs %v", a, b)
		}
		return nil
	}

	bin := func(name string, f func(x, y byte) byte) *framework.API {
		return binaryAPI(name, 1, nil, dpSyscalls(),
			func(a, b *object.Mat, da, db []byte, args []framework.Value) (int, int, int, []byte, error) {
				if err := sameShape(a, b, da, db); err != nil {
					return 0, 0, 0, nil, err
				}
				out := make([]byte, len(da))
				for i := range da {
					out[i] = f(da[i], db[i])
				}
				return a.Rows(), a.Cols(), a.Channels(), out, nil
			})
	}
	r.Register(bin("cv.bitwise_and", func(x, y byte) byte { return x & y }))
	r.Register(bin("cv.bitwise_or", func(x, y byte) byte { return x | y }))
	r.Register(bin("cv.bitwise_xor", func(x, y byte) byte { return x ^ y }))
	r.Register(bin("cv.add", func(x, y byte) byte { return clampByte(int(x) + int(y)) }))
	r.Register(bin("cv.subtract", func(x, y byte) byte { return clampByte(int(x) - int(y)) }))
	r.Register(bin("cv.absdiff", func(x, y byte) byte {
		d := int(x) - int(y)
		if d < 0 {
			d = -d
		}
		return byte(d)
	}))
	r.Register(bin("cv.max", func(x, y byte) byte {
		if x > y {
			return x
		}
		return y
	}))
	r.Register(bin("cv.min", func(x, y byte) byte {
		if x < y {
			return x
		}
		return y
	}))
	r.Register(bin("cv.compare", func(x, y byte) byte {
		if x > y {
			return 255
		}
		return 0
	}))

	r.Register(binaryAPI("cv.addWeighted", 1, nil, dpSyscalls(),
		func(a, b *object.Mat, da, db []byte, args []framework.Value) (int, int, int, []byte, error) {
			if err := sameShape(a, b, da, db); err != nil {
				return 0, 0, 0, nil, err
			}
			alpha, beta, gamma := 0.5, 0.5, 0.0
			if len(args) > 2 {
				alpha = args[2].Float
			}
			if len(args) > 3 {
				beta = args[3].Float
			}
			if len(args) > 4 {
				gamma = args[4].Float
			}
			out := make([]byte, len(da))
			for i := range da {
				out[i] = clampByte(int(alpha*float64(da[i]) + beta*float64(db[i]) + gamma))
			}
			return a.Rows(), a.Cols(), a.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.multiply", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			k := 2.0
			if len(args) > 1 {
				k = args[1].Float
			}
			out := make([]byte, len(data))
			for i, v := range data {
				out[i] = clampByte(int(float64(v) * k))
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.convertScaleAbs", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			alpha, beta := 1.0, 0.0
			if len(args) > 1 {
				alpha = args[1].Float
			}
			if len(args) > 2 {
				beta = args[2].Float
			}
			out := make([]byte, len(data))
			for i, v := range data {
				out[i] = clampByte(int(math.Abs(alpha*float64(v) + beta)))
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.normalize", 2, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			lo, hi := byte(255), byte(0)
			for _, v := range data {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			out := make([]byte, len(data))
			span := int(hi) - int(lo)
			if span == 0 {
				span = 1
			}
			for i, v := range data {
				out[i] = byte((int(v) - int(lo)) * 255 / span)
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.equalizeHist", 3, []string{CVEEqualizeDoS}, dpSyscalls(kernel.SysGetrandom),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			g := grayOf(rows, cols, ch, data)
			var hist [256]int
			for _, v := range g {
				hist[v]++
			}
			var cdf [256]int
			run := 0
			for i, h := range hist {
				run += h
				cdf[i] = run
			}
			total := len(g)
			out := make([]byte, total)
			for i, v := range g {
				out[i] = byte(cdf[v] * 255 / total)
			}
			return rows, cols, 1, out, nil
		}))

	r.Register(unaryAPI("cv.inRange", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			lo, hi := byte(0), byte(255)
			if len(args) > 1 {
				lo = byte(args[1].Int)
			}
			if len(args) > 2 {
				hi = byte(args[2].Int)
			}
			out := make([]byte, len(data))
			for i, v := range data {
				if v >= lo && v <= hi {
					out[i] = 255
				}
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.LUT", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			gamma := 2.0
			if len(args) > 1 && args[1].Float > 0 {
				gamma = args[1].Float
			}
			var lut [256]byte
			for i := range lut {
				lut[i] = clampByte(int(255 * math.Pow(float64(i)/255, 1/gamma)))
			}
			out := make([]byte, len(data))
			for i, v := range data {
				out[i] = lut[v]
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.sqrt", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			out := make([]byte, len(data))
			for i, v := range data {
				out[i] = byte(math.Sqrt(float64(v)*255 + 0.5))
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.pow", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			out := make([]byte, len(data))
			for i, v := range data {
				out[i] = clampByte(int(v) * int(v) / 255)
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	r.Register(unaryAPI("cv.setTo", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			fill := byte(0)
			if len(args) > 1 {
				fill = byte(args[1].Int)
			}
			out := make([]byte, len(data))
			for i := range out {
				out[i] = fill
			}
			return m.Rows(), m.Cols(), m.Channels(), out, nil
		}))

	// cvtColor is the paper's canonical type-neutral API (§4.2.2): pure
	// memory-to-memory, used adjacent to loading, processing, and
	// visualizing alike.
	cvt := unaryAPI("cv.cvtColor", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			mode := "BGR2GRAY"
			if len(args) > 1 {
				mode = args[1].Str
			}
			switch mode {
			case "GRAY2BGR":
				if ch != 1 {
					return 0, 0, 0, nil, fmt.Errorf("simcv: GRAY2BGR on %d-channel image", ch)
				}
				out := make([]byte, rows*cols*3)
				for i, v := range data {
					out[i*3], out[i*3+1], out[i*3+2] = v, v, v
				}
				return rows, cols, 3, out, nil
			default: // any *2GRAY conversion
				return rows, cols, 1, grayOf(rows, cols, ch, data), nil
			}
		})
	cvt.Neutral = true
	r.Register(cvt)

	// copyTo is another type-neutral utility: a pure deep copy.
	cp := unaryAPI("cv.copyTo", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			return m.Rows(), m.Cols(), m.Channels(), append([]byte(nil), data...), nil
		})
	cp.Neutral = true
	r.Register(cp)

	r.Register(reduceAPI("cv.split", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			out := make([]framework.Value, 0, ch)
			for c := 0; c < ch; c++ {
				plane := make([]byte, rows*cols)
				for i := 0; i < rows*cols; i++ {
					plane[i] = data[i*ch+c]
				}
				v, err := outMat(ctx, rows, cols, 1, plane)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			return out, nil
		}))

	var mergeAPI *framework.API
	mergeAPI = &framework.API{
		Name: "cv.merge", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("cv.merge", args, 1); err != nil {
				return nil, err
			}
			planes := make([][]byte, 0, len(args))
			var rows, cols int
			for i, a := range args {
				m, data, err := matView(ctx, a)
				if err != nil {
					return nil, err
				}
				if fired, err := ctx.MaybeExploit(mergeAPI, data); fired {
					return nil, err
				}
				if m.Channels() != 1 {
					return nil, fmt.Errorf("simcv: merge plane %d has %d channels", i, m.Channels())
				}
				if i == 0 {
					rows, cols = m.Rows(), m.Cols()
				} else if m.Rows() != rows || m.Cols() != cols {
					return nil, fmt.Errorf("simcv: merge plane %d shape mismatch", i)
				}
				planes = append(planes, data)
			}
			ch := len(planes)
			out := make([]byte, rows*cols*ch)
			for i := 0; i < rows*cols; i++ {
				for c := 0; c < ch; c++ {
					out[i*ch+c] = planes[c][i]
				}
			}
			ctx.Charge(len(out), 1)
			ctx.EmitMemOp()
			v, err := outMat(ctx, rows, cols, ch, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	}
	r.Register(mergeAPI)
}
