package simcv

import (
	"math"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/object"
)

// drawFn draws on a canvas's bytes in place. It runs inside the store
// that writes them (mem.AddressSpace.StoreInPlace), under the space's lock,
// so it touches nothing but data and cannot fail: a drawing API checks its
// arguments before the store.
type drawFn func(m *object.Mat, data []byte, args []framework.Value)

// drawAPI builds an in-place drawing operation. Drawing APIs mutate their
// first argument (the canvas) rather than returning a new mat — the
// out-parameter path the RPC layer's UpdatedArgs exists for (Fig. 10-(c),
// agent_update_arg). The mutated mat is also returned for convenience.
// The canvas is read once, as a snapshot, for the exploit check and the
// load it counts; check, when not nil, vets the arguments; then fn draws
// straight into the canvas's region within one store, so a draw that
// fails its check leaves the canvas as it was.
func drawAPI(name string, intensity float64, check func(m *object.Mat, args []framework.Value) error, fn drawFn) *framework.API {
	var api *framework.API
	api = &framework.API{
		Name: name, Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: intensity,
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
			if check != nil {
				if err := check(m, args); err != nil {
					return nil, err
				}
			}
			if err := drawInPlace(m, func(b []byte) { fn(m, b, args) }); err != nil {
				return nil, err
			}
			return []framework.Value{args[0]}, nil
		},
	}
	return api
}

// drawInPlace draws on the canvas's whole region with one checked store.
func drawInPlace(m *object.Mat, draw func(data []byte)) error {
	r := m.Region()
	return m.Space().StoreInPlace(r.Base, r.Size, draw)
}

// rectArgs extracts (x, y, w, h) beginning at args[i], with defaults.
func rectArgs(m *object.Mat, args []framework.Value, i int) (x, y, w, h int) {
	x, y = 0, 0
	w, h = m.Cols()/4, m.Rows()/4
	if len(args) > i+3 {
		x, y, w, h = int(args[i].Int), int(args[i+1].Int), int(args[i+2].Int), int(args[i+3].Int)
	}
	return x, y, w, h
}

// setPix writes one pixel on all channels if in bounds.
func setPix(m *object.Mat, data []byte, r, c int, v byte) {
	if r < 0 || r >= m.Rows() || c < 0 || c >= m.Cols() {
		return
	}
	for z := 0; z < m.Channels(); z++ {
		data[(r*m.Cols()+c)*m.Channels()+z] = v
	}
}

// registerDrawing installs the in-place annotation operations — including
// cv.rectangle and cv.putText, the two hot-loop APIs the Fig. 4 partition
// sweep turns on.
func registerDrawing(r *framework.Registry) {
	r.Register(drawAPI("cv.rectangle", 0.05, nil,
		func(m *object.Mat, data []byte, args []framework.Value) {
			x, y, w, h := rectArgs(m, args, 1)
			for c := x; c < x+w; c++ {
				setPix(m, data, y, c, 255)
				setPix(m, data, y+h-1, c, 255)
			}
			for rr := y; rr < y+h; rr++ {
				setPix(m, data, rr, x, 255)
				setPix(m, data, rr, x+w-1, 255)
			}
		}))

	r.Register(drawAPI("cv.putText", 0.05, nil,
		func(m *object.Mat, data []byte, args []framework.Value) {
			// Stamp a 5x3 block per character at (x, y).
			text := "?"
			x, y := 2, 2
			if len(args) > 1 {
				text = args[1].Str
			}
			if len(args) > 3 {
				x, y = int(args[2].Int), int(args[3].Int)
			}
			for i, chr := range []byte(text) {
				for dr := 0; dr < 5; dr++ {
					for dc := 0; dc < 3; dc++ {
						if (int(chr)+dr+dc)%2 == 0 {
							setPix(m, data, y+dr, x+i*4+dc, 255)
						}
					}
				}
			}
		}))

	r.Register(drawAPI("cv.line", 0.05, nil,
		func(m *object.Mat, data []byte, args []framework.Value) {
			x0, y0, x1, y1 := 0, 0, m.Cols()-1, m.Rows()-1
			if len(args) > 4 {
				x0, y0, x1, y1 = int(args[1].Int), int(args[2].Int), int(args[3].Int), int(args[4].Int)
			}
			// Bresenham.
			dx, dy := abs(x1-x0), -abs(y1-y0)
			sx, sy := 1, 1
			if x0 > x1 {
				sx = -1
			}
			if y0 > y1 {
				sy = -1
			}
			e := dx + dy
			for {
				setPix(m, data, y0, x0, 255)
				if x0 == x1 && y0 == y1 {
					break
				}
				if 2*e >= dy {
					e += dy
					x0 += sx
				}
				if 2*e <= dx {
					e += dx
					y0 += sy
				}
			}
		}))

	r.Register(drawAPI("cv.circle", 0.05, nil,
		func(m *object.Mat, data []byte, args []framework.Value) {
			cx, cy, rad := m.Cols()/2, m.Rows()/2, min(m.Cols(), m.Rows())/4
			if len(args) > 3 {
				cx, cy, rad = int(args[1].Int), int(args[2].Int), int(args[3].Int)
			}
			// Midpoint circle.
			x, y, e := rad, 0, 1-rad
			for x >= y {
				for _, p := range [8][2]int{{x, y}, {y, x}, {-x, y}, {-y, x}, {x, -y}, {y, -x}, {-x, -y}, {-y, -x}} {
					setPix(m, data, cy+p[1], cx+p[0], 255)
				}
				y++
				if e < 0 {
					e += 2*y + 1
				} else {
					x--
					e += 2*(y-x) + 1
				}
			}
		}))

	r.Register(drawAPI("cv.arrowedLine", 0.05, nil,
		func(m *object.Mat, data []byte, args []framework.Value) {
			x0, y0, x1, y1 := 0, 0, m.Cols()-1, m.Rows()-1
			if len(args) > 4 {
				x0, y0, x1, y1 = int(args[1].Int), int(args[2].Int), int(args[3].Int), int(args[4].Int)
			}
			steps := max(abs(x1-x0), abs(y1-y0))
			if steps == 0 {
				steps = 1
			}
			for i := 0; i <= steps; i++ {
				setPix(m, data, y0+(y1-y0)*i/steps, x0+(x1-x0)*i/steps, 255)
			}
			// Arrow head.
			setPix(m, data, y1-1, x1, 255)
			setPix(m, data, y1, x1-1, 255)
		}))

	r.Register(drawAPI("cv.ellipse", 0.2,
		func(m *object.Mat, args []framework.Value) error {
			if _, _, a, b := ellipseArgs(m, args); a <= 0 || b <= 0 {
				return errorString("simcv: ellipse axes must be positive")
			}
			return nil
		},
		func(m *object.Mat, data []byte, args []framework.Value) {
			cx, cy, a, b := ellipseArgs(m, args)
			for deg := 0; deg < 360; deg++ {
				rad := float64(deg) * 3.14159265 / 180
				x := cx + int(float64(a)*math.Cos(rad))
				y := cy + int(float64(b)*math.Sin(rad))
				setPix(m, data, y, x, 255)
			}
		}))

	r.Register(drawAPI("cv.polylines", 0.05, nil,
		func(m *object.Mat, data []byte, args []framework.Value) {
			// Closed box through the arg points (x,y pairs), default frame.
			pts := [][2]int{{0, 0}, {m.Cols() - 1, 0}, {m.Cols() - 1, m.Rows() - 1}, {0, m.Rows() - 1}}
			for i := 0; i < len(pts); i++ {
				p, q := pts[i], pts[(i+1)%len(pts)]
				steps := max(abs(q[0]-p[0]), abs(q[1]-p[1]))
				if steps == 0 {
					steps = 1
				}
				for s := 0; s <= steps; s++ {
					setPix(m, data, p[1]+(q[1]-p[1])*s/steps, p[0]+(q[0]-p[0])*s/steps, 255)
				}
			}
		}))

	r.Register(drawAPI("cv.fillPoly", 2, nil,
		func(m *object.Mat, data []byte, args []framework.Value) {
			x, y, w, h := rectArgs(m, args, 1)
			for rr := y; rr < y+h; rr++ {
				for cc := x; cc < x+w; cc++ {
					setPix(m, data, rr, cc, 255)
				}
			}
		}))

	r.Register(drawAPI("cv.drawMarker", 0.02, nil,
		func(m *object.Mat, data []byte, args []framework.Value) {
			cx, cy := m.Cols()/2, m.Rows()/2
			if len(args) > 2 {
				cx, cy = int(args[1].Int), int(args[2].Int)
			}
			for d := -3; d <= 3; d++ {
				setPix(m, data, cy, cx+d, 255)
				setPix(m, data, cy+d, cx, 255)
			}
		}))

	// drawContours draws boxes from a contour tensor onto the canvas.
	var dcAPI *framework.API
	dcAPI = &framework.API{
		Name: "cv.drawContours", Framework: Name, TrueType: framework.TypeProcessing,
		StaticOps: framework.DPOps(), Syscalls: dpSyscalls(), Intensity: 1,
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if err := needArgs("cv.drawContours", args, 2); err != nil {
				return nil, err
			}
			m, data, err := matView(ctx, args[0])
			if err != nil {
				return nil, err
			}
			if fired, err := ctx.MaybeExploit(dcAPI, data); fired {
				return nil, err
			}
			t, err := ctx.Tensor(args[1])
			if err != nil {
				return nil, err
			}
			sh := t.Shape()
			if len(sh) != 2 || sh[1] < 4 {
				return nil, errorString("simcv: drawContours wants Nx5 contour tensor")
			}
			boxes, err := t.View()
			if err != nil {
				return nil, err
			}
			ctx.Charge(len(data), 1)
			ctx.EmitMemOp()
			if err := drawInPlace(m, func(canvas []byte) {
				for i := 0; i < sh[0]; i++ {
					minR, minC := boxes.At(i*sh[1]), boxes.At(i*sh[1]+1)
					maxR, maxC := boxes.At(i*sh[1]+2), boxes.At(i*sh[1]+3)
					for c := int(minC); c <= int(maxC); c++ {
						setPix(m, canvas, int(minR), c, 255)
						setPix(m, canvas, int(maxR), c, 255)
					}
					for rr := int(minR); rr <= int(maxR); rr++ {
						setPix(m, canvas, rr, int(minC), 255)
						setPix(m, canvas, rr, int(maxC), 255)
					}
				}
			}); err != nil {
				return nil, err
			}
			return []framework.Value{args[0]}, nil
		},
	}
	r.Register(dcAPI)
}

// ellipseArgs extracts cv.ellipse's (cx, cy, a, b) from args, with
// defaults.
func ellipseArgs(m *object.Mat, args []framework.Value) (cx, cy, a, b int) {
	cx, cy = m.Cols()/2, m.Rows()/2
	a, b = m.Cols()/3, m.Rows()/4
	if len(args) > 4 {
		cx, cy, a, b = int(args[1].Int), int(args[2].Int), int(args[3].Int), int(args[4].Int)
	}
	return cx, cy, a, b
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
