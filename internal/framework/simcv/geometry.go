package simcv

import (
	"fmt"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/object"
)

// registerGeometry installs geometric transform operations.
func registerGeometry(r *framework.Registry) {
	r.Register(unaryAPI("cv.resize", 2, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			nr, nc := rows/2, cols/2
			if len(args) > 2 {
				nr, nc = int(args[1].Int), int(args[2].Int)
			}
			if nr <= 0 || nc <= 0 {
				return 0, 0, 0, nil, fmt.Errorf("simcv: resize to %dx%d", nr, nc)
			}
			out := make([]byte, nr*nc*ch)
			for rr := 0; rr < nr; rr++ {
				for cc := 0; cc < nc; cc++ {
					sr := rr * rows / nr
					sc := cc * cols / nc
					for z := 0; z < ch; z++ {
						out[(rr*nc+cc)*ch+z] = data[(sr*cols+sc)*ch+z]
					}
				}
			}
			return nr, nc, ch, out, nil
		}))

	r.Register(unaryAPI("cv.flip", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			horizontal := true
			if len(args) > 1 {
				horizontal = args[1].Int != 0
			}
			out := make([]byte, len(data))
			for rr := 0; rr < rows; rr++ {
				for cc := 0; cc < cols; cc++ {
					sr, sc := rr, cols-1-cc
					if !horizontal {
						sr, sc = rows-1-rr, cc
					}
					for z := 0; z < ch; z++ {
						out[(rr*cols+cc)*ch+z] = data[(sr*cols+sc)*ch+z]
					}
				}
			}
			return rows, cols, ch, out, nil
		}))

	r.Register(unaryAPI("cv.transpose", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			out := make([]byte, len(data))
			for rr := 0; rr < rows; rr++ {
				for cc := 0; cc < cols; cc++ {
					for z := 0; z < ch; z++ {
						out[(cc*rows+rr)*ch+z] = data[(rr*cols+cc)*ch+z]
					}
				}
			}
			return cols, rows, ch, out, nil
		}))

	r.Register(unaryAPI("cv.rotate", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			// 90 degrees clockwise.
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			out := make([]byte, len(data))
			for rr := 0; rr < rows; rr++ {
				for cc := 0; cc < cols; cc++ {
					for z := 0; z < ch; z++ {
						out[(cc*rows+(rows-1-rr))*ch+z] = data[(rr*cols+cc)*ch+z]
					}
				}
			}
			return cols, rows, ch, out, nil
		}))

	// warp applies a 3x3 homography held in a tensor argument (inverse
	// mapping with nearest-neighbour sampling).
	warpWith := func(name string, cves []string) *framework.API {
		var api *framework.API
		api = &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeProcessing,
			StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 4, CVEs: cves,
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				if err := needArgs(name, args, 2); err != nil {
					return nil, err
				}
				m, data, err := matView(ctx, args[0])
				if err != nil {
					return nil, err
				}
				if fired, err := ctx.MaybeExploit(api, data); fired {
					return nil, err
				}
				h, err := ctx.Tensor(args[1])
				if err != nil {
					return nil, err
				}
				if h.Len() < 6 {
					return nil, fmt.Errorf("simcv: %s matrix needs >=6 entries", name)
				}
				hm := make([]float64, 9)
				hm[8] = 1
				if err := readFlat(h, 0, hm[:min(h.Len(), 9)]); err != nil {
					return nil, err
				}
				rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
				ctx.Charge(len(data), 4)
				ctx.EmitMemOp()
				out := make([]byte, len(data))
				for rr := 0; rr < rows; rr++ {
					for cc := 0; cc < cols; cc++ {
						x, y := float64(cc), float64(rr)
						w := hm[6]*x + hm[7]*y + hm[8]
						if w == 0 {
							continue
						}
						sx := int((hm[0]*x + hm[1]*y + hm[2]) / w)
						sy := int((hm[3]*x + hm[4]*y + hm[5]) / w)
						if sx < 0 || sx >= cols || sy < 0 || sy >= rows {
							continue
						}
						for z := 0; z < ch; z++ {
							out[(rr*cols+cc)*ch+z] = data[(sy*cols+sx)*ch+z]
						}
					}
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
	r.Register(warpWith("cv.warpPerspective", []string{CVEWarpRCE}))
	r.Register(warpWith("cv.warpAffine", nil))

	// getPerspectiveTransform: derives a translation+scale homography from
	// two quads given as flat tensors (x0,y0,...,x3,y3). A full DLT solve
	// is overkill for the simulation; the affine fit preserves the
	// data-flow shape and produces a usable matrix.
	transformFrom := func(name string) *framework.API {
		return &framework.API{
			Name: name, Framework: Name, TrueType: framework.TypeProcessing,
			StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 1,
			Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
				if err := needArgs(name, args, 2); err != nil {
					return nil, err
				}
				src, err := ctx.Tensor(args[0])
				if err != nil {
					return nil, err
				}
				dst, err := ctx.Tensor(args[1])
				if err != nil {
					return nil, err
				}
				if src.Len() < 4 || dst.Len() < 4 {
					return nil, fmt.Errorf("simcv: %s needs >=2 points per quad", name)
				}
				var s, d [3]float64
				if err := readFlat(src, 0, s[:]); err != nil {
					return nil, err
				}
				if err := readFlat(dst, 0, d[:]); err != nil {
					return nil, err
				}
				sx0, sy0, sx1 := s[0], s[1], s[2]
				dx0, dy0, dx1 := d[0], d[1], d[2]
				scale := 1.0
				if dx1 != dx0 {
					scale = (sx1 - sx0) / (dx1 - dx0)
				}
				id, t, err := ctx.NewTensor(3, 3)
				if err != nil {
					return nil, err
				}
				_ = t.Set(scale, 0, 0)
				_ = t.Set(scale, 1, 1)
				_ = t.Set(1, 2, 2)
				_ = t.Set(sx0-dx0*scale, 0, 2)
				_ = t.Set(sy0-dy0*scale, 1, 2)
				ctx.EmitMemOp()
				return []framework.Value{framework.Obj(id)}, nil
			},
		}
	}
	r.Register(transformFrom("cv.getPerspectiveTransform"))
	r.Register(transformFrom("cv.getAffineTransform"))

	r.Register(unaryAPI("cv.copyMakeBorder", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			b := 2
			if len(args) > 1 && args[1].Int > 0 {
				b = int(args[1].Int)
			}
			nr, nc := rows+2*b, cols+2*b
			out := make([]byte, nr*nc*ch)
			for rr := 0; rr < nr; rr++ {
				for cc := 0; cc < nc; cc++ {
					for z := 0; z < ch; z++ {
						out[(rr*nc+cc)*ch+z] = pix(data, rows, cols, ch, rr-b, cc-b, z)
					}
				}
			}
			return nr, nc, ch, out, nil
		}))

	r.Register(unaryAPI("cv.getRectSubPix", 1, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			// Crop: args are (mat, x, y, w, h).
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			x, y, w, h := 0, 0, cols/2, rows/2
			if len(args) > 4 {
				x, y, w, h = int(args[1].Int), int(args[2].Int), int(args[3].Int), int(args[4].Int)
			}
			if w <= 0 || h <= 0 || x < 0 || y < 0 || x+w > cols || y+h > rows {
				return 0, 0, 0, nil, fmt.Errorf("simcv: crop %d,%d %dx%d out of %dx%d", x, y, w, h, cols, rows)
			}
			out := make([]byte, w*h*ch)
			for rr := 0; rr < h; rr++ {
				for cc := 0; cc < w; cc++ {
					for z := 0; z < ch; z++ {
						out[(rr*w+cc)*ch+z] = data[((y+rr)*cols+(x+cc))*ch+z]
					}
				}
			}
			return h, w, ch, out, nil
		}))

	r.Register(unaryAPI("cv.undistort", 4, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			// Mild barrel-correction: radial remap toward the centre.
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			out := make([]byte, len(data))
			cr, cc2 := float64(rows)/2, float64(cols)/2
			for rr := 0; rr < rows; rr++ {
				for cc := 0; cc < cols; cc++ {
					dy, dx := float64(rr)-cr, float64(cc)-cc2
					k := 1 - 0.05*(dx*dx+dy*dy)/(cr*cr+cc2*cc2)
					sr, sc := int(cr+dy*k), int(cc2+dx*k)
					for z := 0; z < ch; z++ {
						out[(rr*cols+cc)*ch+z] = pix(data, rows, cols, ch, sr, sc, z)
					}
				}
			}
			return rows, cols, ch, out, nil
		}))

	r.Register(&framework.API{
		Name: "cv.remap", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 4,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("cv.remap", args, 2); err != nil {
				return nil, err
			}
			m, data, err := matView(ctx, args[0])
			if err != nil {
				return nil, err
			}
			flow, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			sh := flow.Shape()
			rows, cols, ch := m.Rows(), m.Cols(), m.Channels()
			if len(sh) != 3 || sh[0] != rows || sh[1] != cols || sh[2] != 2 {
				return nil, fmt.Errorf("simcv: remap flow shape %v for %dx%d image", sh, rows, cols)
			}
			fv, err := flow.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(len(data), 4)
			ctx.EmitMemOp()
			out := make([]byte, len(data))
			for rr := 0; rr < rows; rr++ {
				for cc := 0; cc < cols; cc++ {
					fx, fy := fv.At((rr*cols+cc)*2), fv.At((rr*cols+cc)*2+1)
					sr, sc := rr+int(fy), cc+int(fx)
					for z := 0; z < ch; z++ {
						out[(rr*cols+cc)*ch+z] = pix(data, rows, cols, ch, sr, sc, z)
					}
				}
			}
			v, err := outMat(ctx, rows, cols, ch, out)
			if err != nil {
				return nil, err
			}
			return []framework.Value{v}, nil
		},
	})
}
