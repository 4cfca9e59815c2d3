package simcv

import (
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// convolve3 applies a 3x3 kernel (with divisor) per channel, clamping at
// borders — the shared core of the small-kernel filters.
func convolve3(rows, cols, ch int, data []byte, k [9]int, div int) []byte {
	if div == 0 {
		div = 1
	}
	out := make([]byte, len(data))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for z := 0; z < ch; z++ {
				sum := 0
				ki := 0
				for dr := -1; dr <= 1; dr++ {
					for dc := -1; dc <= 1; dc++ {
						sum += k[ki] * int(pix(data, rows, cols, ch, r+dr, c+dc, z))
						ki++
					}
				}
				out[(r*cols+c)*ch+z] = clampByte(sum / div)
			}
		}
	}
	return out
}

// morph applies a 3x3 min (erode) or max (dilate) filter.
func morph(rows, cols, ch int, data []byte, dilate bool) []byte {
	out := make([]byte, len(data))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for z := 0; z < ch; z++ {
				var best int
				if dilate {
					best = 0
				} else {
					best = 255
				}
				for dr := -1; dr <= 1; dr++ {
					for dc := -1; dc <= 1; dc++ {
						v := int(pix(data, rows, cols, ch, r+dr, c+dc, z))
						if dilate && v > best || !dilate && v < best {
							best = v
						}
					}
				}
				out[(r*cols+c)*ch+z] = byte(best)
			}
		}
	}
	return out
}

// registerFilter installs the neighbourhood (convolution/morphology)
// operations.
func registerFilter(r *framework.Registry) {
	r.Register(unaryAPI("cv.blur", 9, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			k := [9]int{1, 1, 1, 1, 1, 1, 1, 1, 1}
			return m.Rows(), m.Cols(), m.Channels(), convolve3(m.Rows(), m.Cols(), m.Channels(), data, k, 9), nil
		}))

	r.Register(unaryAPI("cv.boxFilter", 9, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			k := [9]int{1, 1, 1, 1, 1, 1, 1, 1, 1}
			return m.Rows(), m.Cols(), m.Channels(), convolve3(m.Rows(), m.Cols(), m.Channels(), data, k, 9), nil
		}))

	r.Register(unaryAPI("cv.GaussianBlur", 9, nil, dpSyscalls(kernel.SysGettimeofday),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			k := [9]int{1, 2, 1, 2, 4, 2, 1, 2, 1}
			return m.Rows(), m.Cols(), m.Channels(), convolve3(m.Rows(), m.Cols(), m.Channels(), data, k, 16), nil
		}))

	r.Register(unaryAPI("cv.medianBlur", 12, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			out := make([]byte, len(data))
			var win [9]byte
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					for z := 0; z < ch; z++ {
						i := 0
						for dr := -1; dr <= 1; dr++ {
							for dc := -1; dc <= 1; dc++ {
								win[i] = pix(data, rows, cols, ch, r+dr, c+dc, z)
								i++
							}
						}
						// insertion sort of 9 elements
						for a := 1; a < 9; a++ {
							v := win[a]
							b := a - 1
							for b >= 0 && win[b] > v {
								win[b+1] = win[b]
								b--
							}
							win[b+1] = v
						}
						out[(r*cols+c)*ch+z] = win[4]
					}
				}
			}
			return rows, cols, ch, out, nil
		}))

	r.Register(unaryAPI("cv.bilateralFilter", 15, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			out := make([]byte, len(data))
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					for z := 0; z < ch; z++ {
						center := int(pix(data, rows, cols, ch, r, c, z))
						sum, wsum := 0.0, 0.0
						for dr := -1; dr <= 1; dr++ {
							for dc := -1; dc <= 1; dc++ {
								v := int(pix(data, rows, cols, ch, r+dr, c+dc, z))
								d := float64(v - center)
								w := math.Exp(-d * d / 512)
								sum += w * float64(v)
								wsum += w
							}
						}
						out[(r*cols+c)*ch+z] = clampByte(int(sum / wsum))
					}
				}
			}
			return rows, cols, ch, out, nil
		}))

	r.Register(unaryAPI("cv.erode", 9, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			return m.Rows(), m.Cols(), m.Channels(), morph(m.Rows(), m.Cols(), m.Channels(), data, false), nil
		}))

	r.Register(unaryAPI("cv.dilate", 9, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			return m.Rows(), m.Cols(), m.Channels(), morph(m.Rows(), m.Cols(), m.Channels(), data, true), nil
		}))

	r.Register(unaryAPI("cv.morphologyEx", 18, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			op := "open"
			if len(args) > 1 {
				op = args[1].Str
			}
			var out []byte
			switch op {
			case "close":
				out = morph(rows, cols, ch, morph(rows, cols, ch, data, true), false)
			case "gradient":
				d := morph(rows, cols, ch, data, true)
				e := morph(rows, cols, ch, data, false)
				out = make([]byte, len(data))
				for i := range out {
					out[i] = byte(int(d[i]) - int(e[i]))
				}
			default: // open
				out = morph(rows, cols, ch, morph(rows, cols, ch, data, false), true)
			}
			return rows, cols, ch, out, nil
		}))

	sobelK := [9]int{-1, 0, 1, -2, 0, 2, -1, 0, 1}
	r.Register(unaryAPI("cv.Sobel", 9, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			return m.Rows(), m.Cols(), m.Channels(), convolve3(m.Rows(), m.Cols(), m.Channels(), data, sobelK, 1), nil
		}))

	scharrK := [9]int{-3, 0, 3, -10, 0, 10, -3, 0, 3}
	r.Register(unaryAPI("cv.Scharr", 9, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			return m.Rows(), m.Cols(), m.Channels(), convolve3(m.Rows(), m.Cols(), m.Channels(), data, scharrK, 4), nil
		}))

	lapK := [9]int{0, 1, 0, 1, -4, 1, 0, 1, 0}
	r.Register(unaryAPI("cv.Laplacian", 9, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			return m.Rows(), m.Cols(), m.Channels(), convolve3(m.Rows(), m.Cols(), m.Channels(), data, lapK, 1), nil
		}))

	r.Register(unaryAPI("cv.Canny", 20, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			g := grayOf(rows, cols, ch, data)
			lo := 50
			if len(args) > 1 {
				lo = int(args[1].Int)
			}
			out := make([]byte, rows*cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					gx := int(pix(g, rows, cols, 1, r, c+1, 0)) - int(pix(g, rows, cols, 1, r, c-1, 0))
					gy := int(pix(g, rows, cols, 1, r+1, c, 0)) - int(pix(g, rows, cols, 1, r-1, c, 0))
					mag := int(math.Hypot(float64(gx), float64(gy)))
					if mag > lo {
						out[r*cols+c] = 255
					}
				}
			}
			return rows, cols, 1, out, nil
		}))

	r.Register(&framework.API{
		Name: "cv.filter2D", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 9,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("cv.filter2D", args, 2); err != nil {
				return nil, err
			}
			m, data, err := matView(ctx, args[0])
			if err != nil {
				return nil, err
			}
			kt, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			if kt.Len() != 9 {
				return nil, needArgs("cv.filter2D kernel must be 3x3", args, 99)
			}
			var kv [9]float64
			if err := readFlat(kt, 0, kv[:]); err != nil {
				return nil, err
			}
			var k [9]int
			div := 0
			for i, v := range kv {
				k[i] = int(v)
				div += int(v)
			}
			if div == 0 {
				div = 1
			}
			ctx.Charge(len(data), 9)
			ctx.EmitMemOp()
			out := convolve3(m.Rows(), m.Cols(), m.Channels(), data, k, div)
			v, err := outMat(ctx, m.Rows(), m.Cols(), m.Channels(), out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})

	r.Register(unaryAPI("cv.sepFilter2D", 6, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			// Separable box: horizontal then vertical 1x3 means.
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			tmp := make([]byte, len(data))
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					for z := 0; z < ch; z++ {
						s := int(pix(data, rows, cols, ch, r, c-1, z)) + int(pix(data, rows, cols, ch, r, c, z)) + int(pix(data, rows, cols, ch, r, c+1, z))
						tmp[(r*cols+c)*ch+z] = byte(s / 3)
					}
				}
			}
			out := make([]byte, len(data))
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					for z := 0; z < ch; z++ {
						s := int(pix(tmp, rows, cols, ch, r-1, c, z)) + int(pix(tmp, rows, cols, ch, r, c, z)) + int(pix(tmp, rows, cols, ch, r+1, c, z))
						out[(r*cols+c)*ch+z] = byte(s / 3)
					}
				}
			}
			return rows, cols, ch, out, nil
		}))

	r.Register(unaryAPI("cv.pyrDown", 4, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			nr, nc := (rows+1)/2, (cols+1)/2
			out := make([]byte, nr*nc*ch)
			for r := 0; r < nr; r++ {
				for c := 0; c < nc; c++ {
					for z := 0; z < ch; z++ {
						s := int(pix(data, rows, cols, ch, 2*r, 2*c, z)) +
							int(pix(data, rows, cols, ch, 2*r+1, 2*c, z)) +
							int(pix(data, rows, cols, ch, 2*r, 2*c+1, z)) +
							int(pix(data, rows, cols, ch, 2*r+1, 2*c+1, z))
						out[(r*nc+c)*ch+z] = byte(s / 4)
					}
				}
			}
			return nr, nc, ch, out, nil
		}))

	r.Register(unaryAPI("cv.pyrUp", 4, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			nr, nc := rows*2, cols*2
			out := make([]byte, nr*nc*ch)
			for r := 0; r < nr; r++ {
				for c := 0; c < nc; c++ {
					for z := 0; z < ch; z++ {
						out[(r*nc+c)*ch+z] = pix(data, rows, cols, ch, r/2, c/2, z)
					}
				}
			}
			return nr, nc, ch, out, nil
		}))

	r.Register(reduceAPI("cv.getStructuringElement", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			// Returns a 3x3 all-ones kernel mat; the input mat only sets
			// the element type in real OpenCV, mirrored loosely here.
			out := []byte{1, 1, 1, 1, 1, 1, 1, 1, 1}
			v, err := outMat(ctx, 3, 3, 1, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		}))

	r.Register(unaryAPI("cv.distanceTransform", 16, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			// Two-pass chamfer distance on a binary image.
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			g := grayOf(rows, cols, ch, data)
			const inf = 1 << 20
			d := make([]int, rows*cols)
			for i, v := range g {
				if v > 0 {
					d[i] = 0
				} else {
					d[i] = inf
				}
			}
			at := func(r, c int) int {
				if r < 0 || r >= rows || c < 0 || c >= cols {
					return inf
				}
				return d[r*cols+c]
			}
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					v := d[r*cols+c]
					if w := at(r-1, c) + 1; w < v {
						v = w
					}
					if w := at(r, c-1) + 1; w < v {
						v = w
					}
					d[r*cols+c] = v
				}
			}
			for r := rows - 1; r >= 0; r-- {
				for c := cols - 1; c >= 0; c-- {
					v := d[r*cols+c]
					if w := at(r+1, c) + 1; w < v {
						v = w
					}
					if w := at(r, c+1) + 1; w < v {
						v = w
					}
					d[r*cols+c] = v
				}
			}
			out := make([]byte, rows*cols)
			for i, v := range d {
				out[i] = clampByte(v)
			}
			return rows, cols, 1, out, nil
		}))

	r.Register(unaryAPI("cv.integral", 2, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			// Integral image, scaled down to bytes (mod 256 running sum is
			// not useful, so normalize by total).
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			g := grayOf(rows, cols, ch, data)
			sum := make([]int, rows*cols)
			for r := 0; r < rows; r++ {
				rowSum := 0
				for c := 0; c < cols; c++ {
					rowSum += int(g[r*cols+c])
					up := 0
					if r > 0 {
						up = sum[(r-1)*cols+c]
					}
					sum[r*cols+c] = rowSum + up
				}
			}
			total := sum[rows*cols-1]
			if total == 0 {
				total = 1
			}
			out := make([]byte, rows*cols)
			for i, v := range sum {
				out[i] = byte(v * 255 / total)
			}
			return rows, cols, 1, out, nil
		}))

	r.Register(binaryAPI("cv.matchTemplate", 25, nil, dpSyscalls(),
		func(img, tpl *object.Mat, di, dt []byte, args []framework.Value) (int, int, int, []byte, error) {
			// SAD template matching producing a response map.
			ir, ic := img.Rows(), img.Cols()
			tr, tc := tpl.Rows(), tpl.Cols()
			gi := grayOf(ir, ic, img.Channels(), di)
			gt := grayOf(tr, tc, tpl.Channels(), dt)
			if tr > ir || tc > ic {
				return 0, 0, 0, nil, errTemplateBig
			}
			orr, occ := ir-tr+1, ic-tc+1
			out := make([]byte, orr*occ)
			norm := tr * tc * 255
			for r := 0; r < orr; r++ {
				for c := 0; c < occ; c++ {
					sad := 0
					for y := 0; y < tr; y++ {
						for x := 0; x < tc; x++ {
							d := int(gi[(r+y)*ic+c+x]) - int(gt[y*tc+x])
							if d < 0 {
								d = -d
							}
							sad += d
						}
					}
					out[r*occ+c] = byte(255 - sad*255/norm)
				}
			}
			return orr, occ, 1, out, nil
		}))
}

// errTemplateBig reports a template larger than the search image.
var errTemplateBig = errorString("simcv: template larger than image")

// errorString is a trivial constant-style error.
type errorString string

func (e errorString) Error() string { return string(e) }
