package simcv

import (
	"encoding/binary"
	"fmt"
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// EncodeClassifier serializes a toy cascade classifier: a detection
// threshold and a window size. Real cascades are XML stage trees; the toy
// model keeps the data flow (file → model object → detections) identical.
func EncodeClassifier(threshold byte, window int) []byte {
	out := []byte("CASC")
	out = append(out, threshold)
	return binary.BigEndian.AppendUint32(out, uint32(window))
}

// decodeClassifier parses the classifier format.
func decodeClassifier(b []byte) (threshold byte, window int, err error) {
	if len(b) < 9 || string(b[:4]) != "CASC" {
		return 0, 0, fmt.Errorf("simcv: not a classifier file")
	}
	threshold = b[4]
	window = int(binary.BigEndian.Uint32(b[5:9]))
	if window <= 0 {
		return 0, 0, fmt.Errorf("simcv: classifier window %d", window)
	}
	return threshold, window, nil
}

// registerDetect installs the object-detection and feature-matching APIs.
func registerDetect(r *framework.Registry) {
	// CascadeClassifier constructor loads the model file. Fig. 12-(a)
	// places its syscalls in the data-loading agent, so its true type is
	// data loading.
	var ccAPI *framework.API
	ccAPI = &framework.API{
		Name: "cv.CascadeClassifier", Framework: Name, TrueType: framework.TypeLoading,
		Stateful:  true,
		StaticOps: []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
		Syscalls:  []kernel.Sysno{kernel.SysOpenat, kernel.SysClose, kernel.SysBrk, kernel.SysFstat, kernel.SysRead, kernel.SysLseek},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("CascadeClassifier", args, 1); err != nil {
				return nil, err
			}
			raw, err := ctx.FileRead(args[0].Str)
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(ccAPI, raw); fired {
				return nil, err
			}
			if _, _, err := decodeClassifier(raw); err != nil {
				return nil, err
			}
			id, _, err := ctx.NewBlob(raw)
			if err != nil {
				return nil, err
			}
			return []framework.Value{framework.Obj(id)}, nil
		},
	}
	r.Register(ccAPI)

	var dmsAPI *framework.API
	dmsAPI = &framework.API{
		Name: "cv.CascadeClassifier.detectMultiScale", Framework: Name,
		TrueType: framework.TypeProcessing, Stateful: true,
		StaticOps: framework.DPOps(),
		Syscalls:  dpSyscalls(kernel.SysFutex, kernel.SysClockGettime),
		Intensity: 30,
		CVEs:      []string{CVEDetectRCE, CVEDetectDoS},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("detectMultiScale", args, 2); err != nil {
				return nil, err
			}
			model, err := ctx.Blob(args[0])
			if err != nil {
				return nil, err
			}
			// The classifier is only read, and its snapshot is reused until
			// it is written.
			modelBytes, err := object.Snapshot(model)
			if err != nil {
				return nil, err
			}
			threshold, window, err := decodeClassifier(modelBytes)
			if err != nil {
				return nil, err
			}
			m, data, err := matView(ctx, args[1])
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(dmsAPI, data); fired {
				return nil, err
			}
			rows, cols := m.Rows(), m.Cols()
			g := grayOf(rows, cols, m.Channels(), data)
			ctx.Charge(len(data), 30)
			ctx.EmitMemOp()
			// Sliding window: report windows whose mean exceeds threshold.
			var dets []float64
			step := window / 2
			if step < 1 {
				step = 1
			}
			for y := 0; y+window <= rows; y += step {
				for x := 0; x+window <= cols; x += step {
					sum := 0
					for dy := 0; dy < window; dy += 2 {
						for dx := 0; dx < window; dx += 2 {
							sum += int(g[(y+dy)*cols+x+dx])
						}
					}
					n := ((window + 1) / 2) * ((window + 1) / 2)
					if byte(sum/n) > threshold {
						dets = append(dets, float64(x), float64(y), float64(window), float64(window))
					}
				}
			}
			if len(dets) == 0 {
				id, _, err := ctx.NewTensor(1, 4)
				if err != nil {
					return nil, err
				}
				return []framework.Value{framework.Obj(id), framework.Int64(0)}, nil
			}
			id, t, err := ctx.NewTensor(len(dets)/4, 4)
			if err != nil {
				return nil, err
			}
			for i, v := range dets {
				if err := t.SetFlat(i, v); err != nil {
					return nil, err
				}
			}
			return []framework.Value{framework.Obj(id), framework.Int64(int64(len(dets) / 4))}, nil
		},
	}
	r.Register(dmsAPI)

	r.Register(reduceAPI("cv.HOGDescriptor.compute", 12, nil, dpSyscalls(),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			// 8-bin gradient-orientation histogram over 8x8 cells.
			rows, cols := m.Rows(), m.Cols()
			g := grayOf(rows, cols, m.Channels(), data)
			cellsR, cellsC := (rows+7)/8, (cols+7)/8
			id, t, err := ctx.NewTensor(cellsR*cellsC, 8)
			if err != nil {
				return nil, err
			}
			// hist mirrors t, so each bin adds to the value it last stored
			// without reading it back.
			hist := make([]float64, cellsR*cellsC*8)
			for r := 1; r < rows-1; r++ {
				for c := 1; c < cols-1; c++ {
					gx := int(g[r*cols+c+1]) - int(g[r*cols+c-1])
					gy := int(g[(r+1)*cols+c]) - int(g[(r-1)*cols+c])
					mag := math.Hypot(float64(gx), float64(gy))
					ang := math.Atan2(float64(gy), float64(gx)) + math.Pi
					bin := int(ang/(2*math.Pi)*8) % 8
					cell := (r/8)*cellsC + c/8
					hist[cell*8+bin] += mag
					if err := t.Set(hist[cell*8+bin], cell, bin); err != nil {
						return nil, err
					}
				}
			}
			return []framework.Value{framework.Obj(id)}, nil
		}))

	r.Register(reduceAPI("cv.ORB.detect", 14, nil, dpSyscalls(kernel.SysGetrandom),
		func(ctx *framework.Ctx, m *object.Mat, data []byte, args []framework.Value) ([]framework.Value, error) {
			// FAST-like keypoints: pixels much brighter/darker than the ring
			// of neighbours at radius 2.
			rows, cols := m.Rows(), m.Cols()
			g := grayOf(rows, cols, m.Channels(), data)
			var kps []float64
			for r := 2; r < rows-2 && len(kps) < 128; r++ {
				for c := 2; c < cols-2 && len(kps) < 128; c++ {
					center := int(g[r*cols+c])
					brighter, darker := 0, 0
					for _, d := range [8][2]int{{-2, 0}, {2, 0}, {0, -2}, {0, 2}, {-2, -2}, {2, 2}, {-2, 2}, {2, -2}} {
						v := int(g[(r+d[0])*cols+c+d[1]])
						if v > center+40 {
							brighter++
						}
						if v < center-40 {
							darker++
						}
					}
					if brighter >= 6 || darker >= 6 {
						kps = append(kps, float64(c), float64(r))
					}
				}
			}
			if len(kps) == 0 {
				kps = []float64{0, 0}
			}
			id, t, err := ctx.NewTensor(len(kps)/2, 2)
			if err != nil {
				return nil, err
			}
			for i, v := range kps {
				if err := t.SetFlat(i, v); err != nil {
					return nil, err
				}
			}
			return []framework.Value{framework.Obj(id)}, nil
		}))

	r.Register(&framework.API{
		Name: "cv.BFMatcher.match", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 8,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("BFMatcher.match", args, 2); err != nil {
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
			sa, sb := a.Shape(), b.Shape()
			if len(sa) != 2 || len(sb) != 2 || sa[1] != sb[1] {
				return nil, fmt.Errorf("simcv: match wants NxD tensors, got %v vs %v", sa, sb)
			}
			va, err := a.View()
			if err != nil {
				return nil, err
			}
			vb, err := b.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(a.Size()+b.Size(), 8)
			ctx.EmitMemOp()
			// Nearest neighbour per row of a.
			id, t, err := ctx.NewTensor(sa[0], 2)
			if err != nil {
				return nil, err
			}
			dim := sa[1]
			for i := 0; i < sa[0]; i++ {
				bestJ, bestD := 0, math.MaxFloat64
				for j := 0; j < sb[0]; j++ {
					d := 0.0
					for k := range dim {
						x, y := va.At(i*dim+k), vb.At(j*dim+k)
						d += (x - y) * (x - y)
					}
					if d < bestD {
						bestD, bestJ = d, j
					}
				}
				_ = t.Set(float64(bestJ), i, 0)
				_ = t.Set(math.Sqrt(bestD), i, 1)
			}
			return []framework.Value{framework.Obj(id)}, nil
		},
	})

	// KalmanFilter keeps its state in a caller-held tensor: a stateful API
	// whose state is shared across calls (§A.6's harder class). predict
	// advances (pos += vel); correct blends a measurement in.
	r.Register(&framework.API{
		Name: "cv.KalmanFilter.predict", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 1,
		Stateful: true, SharedState: true,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("KalmanFilter.predict", args, 1); err != nil {
				return nil, err
			}
			st, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			if st.Len() < 4 {
				return nil, errorString("simcv: kalman state needs [x y vx vy]")
			}
			var s [4]float64
			if err := readFlat(st, 0, s[:]); err != nil {
				return nil, err
			}
			x, y, vx, vy := s[0], s[1], s[2], s[3]
			if err := st.SetFlat(0, x+vx); err != nil {
				return nil, err
			}
			if err := st.SetFlat(1, y+vy); err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			return []framework.Value{framework.Float64(x + vx), framework.Float64(y + vy)}, nil
		},
	})
	r.Register(&framework.API{
		Name: "cv.KalmanFilter.correct", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 1,
		Stateful: true, SharedState: true,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("KalmanFilter.correct", args, 3); err != nil {
				return nil, err
			}
			st, err := ctx.Tensor(args[0])
			if err != nil {
				return nil, err
			}
			if st.Len() < 4 {
				return nil, errorString("simcv: kalman state needs [x y vx vy]")
			}
			mx, my := args[1].Float, args[2].Float
			var s [2]float64
			if err := readFlat(st, 0, s[:]); err != nil {
				return nil, err
			}
			x, y := s[0], s[1]
			const gain = 0.5
			nx, ny := x+gain*(mx-x), y+gain*(my-y)
			// Every access error must surface: a faulted write means the state
			// tensor is only partially updated, and swallowing it would report
			// success over silently corrupt state. Surfacing it turns the fault
			// into the crash-restart path, which restores the pre-call
			// checkpoint and re-executes — the mutation stays all-or-nothing.
			if err := st.SetFlat(0, nx); err != nil {
				return nil, err
			}
			if err := st.SetFlat(1, ny); err != nil {
				return nil, err
			}
			if err := st.SetFlat(2, nx-x); err != nil {
				return nil, err
			}
			if err := st.SetFlat(3, ny-y); err != nil {
				return nil, err
			}
			ctx.EmitMemOp()
			return []framework.Value{framework.Float64(nx), framework.Float64(ny)}, nil
		},
	})

	r.Register(binaryAPI("cv.matchShapes", 6, nil, dpSyscalls(),
		func(a, b *object.Mat, da, db []byte, args []framework.Value) (int, int, int, []byte, error) {
			// Compares binary silhouettes; emits a 1x1 similarity mat.
			ga := binarize(grayOf(a.Rows(), a.Cols(), a.Channels(), da))
			gb := binarize(grayOf(b.Rows(), b.Cols(), b.Channels(), db))
			na, nb := 0, 0
			for _, v := range ga {
				if v != 0 {
					na++
				}
			}
			for _, v := range gb {
				if v != 0 {
					nb++
				}
			}
			fa := float64(na) / float64(len(ga)+1)
			fb := float64(nb) / float64(len(gb)+1)
			return 1, 1, 1, []byte{clampByte(int(255 * (1 - math.Abs(fa-fb))))}, nil
		}))
}
