package simcv

import (
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// components finds the 4-connected components of a binary image and
// returns their bounding boxes (minR, minC, maxR, maxC) and areas. It
// marks each pixel it visits by clearing it in bin, which must be the
// caller's own (binarize's result); labels, when not nil, receives each
// pixel's component number from 1, truncated to a byte (0 = background).
func components(rows, cols int, bin, labels []byte) (boxes [][4]int, areas []int) {
	var stack []int
	for start := 0; start < rows*cols; start++ {
		if bin[start] == 0 {
			continue
		}
		label := byte(len(boxes) + 1)
		box := [4]int{rows, cols, -1, -1}
		area := 0
		stack = append(stack[:0], start)
		bin[start] = 0
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if labels != nil {
				labels[i] = label
			}
			r, c := i/cols, i%cols
			area++
			if r < box[0] {
				box[0] = r
			}
			if c < box[1] {
				box[1] = c
			}
			if r > box[2] {
				box[2] = r
			}
			if c > box[3] {
				box[3] = c
			}
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				j := nr*cols + nc
				if bin[j] != 0 {
					bin[j] = 0
					stack = append(stack, j)
				}
			}
		}
		boxes = append(boxes, box)
		areas = append(areas, area)
	}
	return boxes, areas
}

// binarize thresholds a gray image at 128.
func binarize(g []byte) []byte {
	out := make([]byte, len(g))
	for i, v := range g {
		if v >= 128 {
			out[i] = 255
		}
	}
	return out
}

// registerAnalysis installs measurement and feature-extraction operations.
func registerAnalysis(r *framework.Registry) {
	r.Register(reduceAPI("cv.findContours", 8, []string{CVEContoursDoS}, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			rows, cols := m.Rows(), m.Cols()
			boxes, areas := components(rows, cols, binarize(grayOf(rows, cols, m.Channels(), data)), nil)
			if len(boxes) == 0 {
				id, _, err := ctx.NewTensor(1, 5)
				if err != nil {
					return nil, err
				}
				return []framework.Value{framework.Obj(id), framework.Int64(0)}, nil
			}
			id, t, err := ctx.NewTensor(len(boxes), 5)
			if err != nil {
				return nil, err
			}
			for i, b := range boxes {
				_ = t.Set(float64(b[0]), i, 0)
				_ = t.Set(float64(b[1]), i, 1)
				_ = t.Set(float64(b[2]), i, 2)
				_ = t.Set(float64(b[3]), i, 3)
				_ = t.Set(float64(areas[i]), i, 4)
			}
			return []framework.Value{framework.Obj(id), framework.Int64(int64(len(boxes)))}, nil
		}))

	r.Register(&framework.API{
		Name: "cv.boundingRect", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("cv.boundingRect", args, 2); err != nil {
				return nil, err
			}
			t, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			i := int(args[1].Int)
			sh := t.Shape()
			if len(sh) != 2 || sh[1] < 5 || i < 0 || i >= sh[0] {
				return nil, errorString("simcv: boundingRect wants contour tensor and valid index")
			}
			var box [4]float64
			if err := readFlat(t, i*sh[1], box[:]); err != nil {
				return nil, err
			}
			minR, minC, maxR, maxC := box[0], box[1], box[2], box[3]
			ctx.EmitMemOp()
			return []framework.Value{
				framework.Int64(int64(minC)), framework.Int64(int64(minR)),
				framework.Int64(int64(maxC - minC + 1)), framework.Int64(int64(maxR - minR + 1)),
			}, nil
		},
	})

	r.Register(&framework.API{
		Name: "cv.contourArea", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("cv.contourArea", args, 2); err != nil {
				return nil, err
			}
			t, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			i := int(args[1].Int)
			sh := t.Shape()
			if len(sh) != 2 || sh[1] < 5 || i < 0 || i >= sh[0] {
				return nil, errorString("simcv: contourArea wants contour tensor and valid index")
			}
			area, err := t.At(i, 4)
			if err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			return []framework.Value{framework.Float64(area)}, nil
		},
	})

	r.Register(reduceAPI("cv.countNonZero", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			n := 0
			for _, v := range data {
				if v != 0 {
					n++
				}
			}
			return []framework.Value{framework.Int64(int64(n))}, nil
		}))

	r.Register(reduceAPI("cv.mean", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			sum := 0
			for _, v := range data {
				sum += int(v)
			}
			return []framework.Value{framework.Float64(float64(sum) / float64(len(data)))}, nil
		}))

	r.Register(reduceAPI("cv.sum", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			sum := int64(0)
			for _, v := range data {
				sum += int64(v)
			}
			return []framework.Value{framework.Int64(sum)}, nil
		}))

	r.Register(reduceAPI("cv.minMaxLoc", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			lo, hi := 0, 0
			for i, v := range data {
				if v < data[lo] {
					lo = i
				}
				if v > data[hi] {
					hi = i
				}
			}
			stride := m.Cols() * m.Channels()
			return []framework.Value{
				framework.Int64(int64(data[lo])), framework.Int64(int64(data[hi])),
				framework.Int64(int64(lo % stride)), framework.Int64(int64(lo / stride)),
				framework.Int64(int64(hi % stride)), framework.Int64(int64(hi / stride)),
			}, nil
		}))

	r.Register(reduceAPI("cv.calcHist", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			var hist [256]int
			for _, v := range data {
				hist[v]++
			}
			id, t, err := ctx.NewTensor(256)
			if err != nil {
				return nil, err
			}
			for i, h := range hist {
				if err := t.SetFlat(i, float64(h)); err != nil {
					return nil, err
				}
			}
			return []framework.Value{framework.Obj(id)}, nil
		}))

	r.Register(&framework.API{
		Name: "cv.compareHist", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("cv.compareHist", args, 2); err != nil {
				return nil, err
			}
			a, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			b, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			if a.Len() != b.Len() {
				return nil, errorString("simcv: histogram length mismatch")
			}
			va, err := a.View()
			if err != nil {
				return nil, err
			}
			vb, err := b.View()
			if err != nil {
				return nil, err
			}
			// Chi-square distance.
			d := 0.0
			for i := range va.Len() {
				x, y := va.At(i), vb.At(i)
				if x+y > 0 {
					d += (x - y) * (x - y) / (x + y)
				}
			}
			ctx.EmitMemOp()
			return []framework.Value{framework.Float64(d)}, nil
		},
	})

	r.Register(reduceAPI("cv.moments", 2, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			rows, cols := m.Rows(), m.Cols()
			g := grayOf(rows, cols, m.Channels(), data)
			var m00, m10, m01 float64
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					v := float64(g[r*cols+c])
					m00 += v
					m10 += v * float64(c)
					m01 += v * float64(r)
				}
			}
			id, t, err := ctx.NewTensor(3)
			if err != nil {
				return nil, err
			}
			_ = t.SetFlat(0, m00)
			_ = t.SetFlat(1, m10)
			_ = t.SetFlat(2, m01)
			return []framework.Value{framework.Obj(id)}, nil
		}))

	r.Register(reduceAPI("cv.norm", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			s := 0.0
			for _, v := range data {
				s += float64(v) * float64(v)
			}
			return []framework.Value{framework.Float64(math.Sqrt(s))}, nil
		}))

	r.Register(reduceAPI("cv.reduce", 1, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			rows, cols := m.Rows(), m.Cols()
			g := grayOf(rows, cols, m.Channels(), data)
			id, t, err := ctx.NewTensor(rows)
			if err != nil {
				return nil, err
			}
			for r := 0; r < rows; r++ {
				sum := 0.0
				for c := 0; c < cols; c++ {
					sum += float64(g[r*cols+c])
				}
				if err := t.SetFlat(r, sum); err != nil {
					return nil, err
				}
			}
			return []framework.Value{framework.Obj(id)}, nil
		}))

	r.Register(reduceAPI("cv.HoughLines", 10, nil, dpSyscalls(kernel.SysGetrandom),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			// Detect strong horizontal/vertical lines by row/column edge mass.
			rows, cols := m.Rows(), m.Cols()
			g := binarize(grayOf(rows, cols, m.Channels(), data))
			var lines []float64 // (orientation 0=h,1=v, index)
			for r := 0; r < rows; r++ {
				n := 0
				for c := 0; c < cols; c++ {
					if g[r*cols+c] != 0 {
						n++
					}
				}
				if n*10 >= cols*9 {
					lines = append(lines, 0, float64(r))
				}
			}
			for c := 0; c < cols; c++ {
				n := 0
				for r := 0; r < rows; r++ {
					if g[r*cols+c] != 0 {
						n++
					}
				}
				if n*10 >= rows*9 {
					lines = append(lines, 1, float64(c))
				}
			}
			if len(lines) == 0 {
				lines = []float64{0, 0}
			}
			id, t, err := ctx.NewTensor(len(lines)/2, 2)
			if err != nil {
				return nil, err
			}
			for i, v := range lines {
				if err := t.SetFlat(i, v); err != nil {
					return nil, err
				}
			}
			return []framework.Value{framework.Obj(id)}, nil
		}))

	r.Register(reduceAPI("cv.HoughCircles", 12, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			// Circle proxy: centroids of round-ish components.
			rows, cols := m.Rows(), m.Cols()
			boxes, areas := components(rows, cols, binarize(grayOf(rows, cols, m.Channels(), data)), nil)
			var circ []float64
			for i, b := range boxes {
				h, w := b[2]-b[0]+1, b[3]-b[1]+1
				if h == 0 || w == 0 {
					continue
				}
				ratio := float64(h) / float64(w)
				fill := float64(areas[i]) / float64(h*w)
				if ratio > 0.75 && ratio < 1.33 && fill > math.Pi/4*0.8 {
					circ = append(circ, float64(b[1]+w/2), float64(b[0]+h/2), float64((h+w)/4))
				}
			}
			if len(circ) == 0 {
				circ = []float64{0, 0, 0}
			}
			id, t, err := ctx.NewTensor(len(circ)/3, 3)
			if err != nil {
				return nil, err
			}
			for i, v := range circ {
				if err := t.SetFlat(i, v); err != nil {
					return nil, err
				}
			}
			return []framework.Value{framework.Obj(id)}, nil
		}))

	r.Register(reduceAPI("cv.connectedComponents", 8, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			rows, cols := m.Rows(), m.Cols()
			lab := make([]byte, rows*cols)
			boxes, _ := components(rows, cols, binarize(grayOf(rows, cols, m.Channels(), data)), lab)
			v, err := outMat(ctx, rows, cols, 1, lab)
			if err != nil {
				return nil, err
			}
			return []framework.Value{framework.Int64(int64(len(boxes) + 1)), v}, nil
		}))

	r.Register(reduceAPI("cv.goodFeaturesToTrack", 10, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			rows, cols := m.Rows(), m.Cols()
			g := grayOf(rows, cols, m.Channels(), data)
			type corner struct{ r, c int }
			var best []corner
			for r := 1; r < rows-1; r++ {
				for c := 1; c < cols-1; c++ {
					gx := int(g[r*cols+c+1]) - int(g[r*cols+c-1])
					gy := int(g[(r+1)*cols+c]) - int(g[(r-1)*cols+c])
					s := gx*gx + gy*gy
					if s > 10000 {
						best = append(best, corner{r, c})
						if len(best) >= 64 {
							break
						}
					}
				}
				if len(best) >= 64 {
					break
				}
			}
			n := len(best)
			if n == 0 {
				n = 1
				best = []corner{{0, 0}}
			}
			id, t, err := ctx.NewTensor(n, 2)
			if err != nil {
				return nil, err
			}
			for i, b := range best {
				_ = t.Set(float64(b.c), i, 0)
				_ = t.Set(float64(b.r), i, 1)
			}
			return []framework.Value{framework.Obj(id)}, nil
		}))

	r.Register(unaryAPI("cv.cornerHarris", 12, nil, dpSyscalls(),
		func(m *object.Mat, data []byte, args []framework.Value) (int, int, int, []byte, error) {
			rows, cols := m.Rows(), m.Cols()
			g := grayOf(rows, cols, m.Channels(), data)
			out := make([]byte, rows*cols)
			for r := 1; r < rows-1; r++ {
				for c := 1; c < cols-1; c++ {
					gx := int(g[r*cols+c+1]) - int(g[r*cols+c-1])
					gy := int(g[(r+1)*cols+c]) - int(g[(r-1)*cols+c])
					out[r*cols+c] = clampByte((gx*gx + gy*gy) / 512)
				}
			}
			return rows, cols, 1, out, nil
		}))

	r.Register(binaryAPI("cv.phaseCorrelate", 6, nil, dpSyscalls(),
		func(a, b *object.Mat, da, db []byte, args []framework.Value) (int, int, int, []byte, error) {
			// Coarse translation estimate by scanning ±4 pixel shifts;
			// emits a 1x2x1 mat holding (dy+128, dx+128).
			rows, cols := a.Rows(), a.Cols()
			ga := grayOf(rows, cols, a.Channels(), da)
			gb := grayOf(b.Rows(), b.Cols(), b.Channels(), db)
			if len(ga) != len(gb) {
				return 0, 0, 0, nil, errorString("simcv: phaseCorrelate shape mismatch")
			}
			bestD, bestR, bestC := math.MaxFloat64, 0, 0
			for dr := -4; dr <= 4; dr++ {
				for dc := -4; dc <= 4; dc++ {
					sad := 0.0
					for r := 0; r < rows; r += 4 {
						for c := 0; c < cols; c += 4 {
							va := float64(pix(ga, rows, cols, 1, r, c, 0))
							vb := float64(pix(gb, rows, cols, 1, r+dr, c+dc, 0))
							sad += math.Abs(va - vb)
						}
					}
					if sad < bestD {
						bestD, bestR, bestC = sad, dr, dc
					}
				}
			}
			return 1, 2, 1, []byte{byte(bestR + 128), byte(bestC + 128)}, nil
		}))

	r.Register(binaryAPI("cv.calcOpticalFlowFarneback", 20, nil, dpSyscalls(),
		func(a, b *object.Mat, da, db []byte, args []framework.Value) (int, int, int, []byte, error) {
			// Block-difference flow magnitude map.
			rows, cols := a.Rows(), a.Cols()
			ga := grayOf(rows, cols, a.Channels(), da)
			gb := grayOf(b.Rows(), b.Cols(), b.Channels(), db)
			if len(ga) != len(gb) {
				return 0, 0, 0, nil, errorString("simcv: flow shape mismatch")
			}
			out := make([]byte, rows*cols)
			for i := range ga {
				d := int(ga[i]) - int(gb[i])
				if d < 0 {
					d = -d
				}
				out[i] = byte(d)
			}
			return rows, cols, 1, out, nil
		}))
}
