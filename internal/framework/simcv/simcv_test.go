package simcv_test

import (
	"errors"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// env bundles a kernel, process, context, and the simcv registry.
type env struct {
	k   *kernel.Kernel
	ctx *framework.Ctx
	reg *framework.Registry
}

func newEnv(t *testing.T) *env {
	t.Helper()
	k := kernel.New()
	p := k.Spawn("test")
	return &env{k: k, ctx: framework.NewCtx(k, p), reg: simcv.Registry()}
}

// call runs an API by name.
func (e *env) call(t *testing.T, name string, args ...framework.Value) []framework.Value {
	t.Helper()
	out, err := e.reg.MustGet(name).Exec(e.ctx, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// grad builds an 8x8 single-channel gradient image value.
func (e *env) grad(t *testing.T) framework.Value {
	t.Helper()
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 4)
	}
	id, _, err := e.ctx.NewMatFromBytes(8, 8, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}

// matOf resolves a returned value to its mat.
func (e *env) matOf(t *testing.T, v framework.Value) *object.Mat {
	t.Helper()
	m, err := e.ctx.Mat(v)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryComposition(t *testing.T) {
	reg := simcv.Registry()
	if reg.Len() < 85 {
		t.Fatalf("simcv has %d APIs, want >= 85 (Table 2 scale)", reg.Len())
	}
	counts := map[framework.APIType]int{}
	for _, a := range reg.All() {
		counts[a.TrueType]++
		if a.Framework != simcv.Name {
			t.Errorf("%s has framework %q", a.Name, a.Framework)
		}
	}
	if counts[framework.TypeProcessing] < 70 {
		t.Errorf("DP count = %d, want >= 70", counts[framework.TypeProcessing])
	}
	if counts[framework.TypeLoading] < 5 || counts[framework.TypeVisualizing] < 6 || counts[framework.TypeStoring] < 2 {
		t.Errorf("type counts = %v", counts)
	}
}

func TestImageEncodeDecode(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6}
	enc, err := simcv.EncodeImage(2, 3, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	r, c, ch, got, err := simcv.DecodeImage(enc)
	if err != nil || r != 2 || c != 3 || ch != 1 || string(got) != string(data) {
		t.Fatalf("decode = %d %d %d %v %v", r, c, ch, got, err)
	}
	if _, err := simcv.EncodeImage(2, 2, 1, data); err == nil {
		t.Fatal("mismatched encode should fail")
	}
	if _, _, _, _, err := simcv.DecodeImage([]byte("notimg")); err == nil {
		t.Fatal("garbage decode should fail")
	}
}

// TestEncodeMatLoadsInPlace: EncodeMat encodes a mat as EncodeImage does
// its bytes, with one checked load straight into the encoding, its only
// allocation.
func TestEncodeMatLoadsInPlace(t *testing.T) {
	k := kernel.New()
	space := k.Spawn("test").Space()
	data := []byte{1, 2, 3, 4, 5, 6}
	m, err := object.MatFromBytes(space, 2, 3, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := simcv.EncodeImage(2, 3, 1, data)
	loads := space.Stats().Loads
	if got, err := simcv.EncodeMat(m); err != nil || string(got) != string(want) || space.Stats().Loads != loads+1 {
		t.Fatalf("EncodeMat = %v, %v after %d loads", got, err, space.Stats().Loads-loads)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = simcv.EncodeMat(m) }); allocs != 1 {
		t.Fatalf("EncodeMat made %v allocs, want 1", allocs)
	}
}

func TestImreadImwriteRoundTrip(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 6*4*3)
	for i := range data {
		data[i] = byte(i)
	}
	enc, _ := simcv.EncodeImage(6, 4, 3, data)
	e.k.FS.WriteFile("/in.img", enc)

	out := e.call(t, "cv.imread", framework.Str("/in.img"))
	m := e.matOf(t, out[0])
	if m.Rows() != 6 || m.Cols() != 4 || m.Channels() != 3 {
		t.Fatalf("imread shape = %v", m)
	}
	e.call(t, "cv.imwrite", framework.Str("/out.img"), out[0])
	stored, err := e.k.FS.ReadFile("/out.img")
	if err != nil || string(stored) != string(enc) {
		t.Fatalf("imwrite round trip failed: %v", err)
	}
}

func TestImreadExploitCrashes(t *testing.T) {
	e := newEnv(t)
	e.k.FS.WriteFile("/evil.img", framework.Trigger("CVE-2017-12597", nil))
	_, err := e.reg.MustGet("cv.imread").Exec(e.ctx, []framework.Value{framework.Str("/evil.img")})
	if !errors.Is(err, framework.ErrExploited) {
		t.Fatalf("err = %v", err)
	}
	if e.ctx.P.Alive() {
		t.Fatal("process should have crashed")
	}
}

func TestExploitForOtherAPIInert(t *testing.T) {
	// An imshow-CVE-crafted file fed to imread is garbage, not an exploit.
	e := newEnv(t)
	e.k.FS.WriteFile("/evil.img", framework.Trigger("CVE-2019-15939", nil))
	_, err := e.reg.MustGet("cv.imread").Exec(e.ctx, []framework.Value{framework.Str("/evil.img")})
	if errors.Is(err, framework.ErrExploited) {
		t.Fatal("imread must not fire imshow's CVE")
	}
	if err == nil {
		t.Fatal("garbage input should error as a decode failure")
	}
	if !e.ctx.P.Alive() {
		t.Fatal("decode failure should not crash the process")
	}
}

func TestVideoCaptureStream(t *testing.T) {
	e := newEnv(t)
	cam := kernel.NewCamera("/dev/camera0")
	frame, _ := simcv.EncodeImage(4, 4, 1, make([]byte, 16))
	cam.Push(frame)
	e.k.AddCamera(cam)

	h := e.call(t, "cv.VideoCapture", framework.Int64(0))[0]
	out := e.call(t, "cv.VideoCapture.read", h)
	if !out[0].Bool {
		t.Fatal("first read should succeed")
	}
	if e.matOf(t, out[1]).Rows() != 4 {
		t.Fatal("frame shape wrong")
	}
	out = e.call(t, "cv.VideoCapture.read", h)
	if out[0].Bool {
		t.Fatal("exhausted camera should report false")
	}
}

func TestThreshold(t *testing.T) {
	e := newEnv(t)
	out := e.call(t, "cv.threshold", e.grad(t), framework.Int64(100))
	m := e.matOf(t, out[0])
	lo, _ := m.At(0, 0, 0) // value 0 -> below threshold
	hi, _ := m.At(7, 7, 0) // value 252 -> above
	if lo != 0 || hi != 255 {
		t.Fatalf("threshold = %d, %d", lo, hi)
	}
}

func TestBitwiseNotInvolution(t *testing.T) {
	e := newEnv(t)
	in := e.grad(t)
	once := e.call(t, "cv.bitwise_not", in)[0]
	twice := e.call(t, "cv.bitwise_not", once)[0]
	orig, _ := object.PayloadBytes(e.matOf(t, in))
	back, _ := object.PayloadBytes(e.matOf(t, twice))
	if string(orig) != string(back) {
		t.Fatal("double inversion should restore the image")
	}
}

func TestBinaryOpsShapeMismatch(t *testing.T) {
	e := newEnv(t)
	a := e.grad(t)
	idB, _, _ := e.ctx.NewMat(4, 4, 1)
	b := framework.Obj(idB)
	if _, err := e.reg.MustGet("cv.add").Exec(e.ctx, []framework.Value{a, b}); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestAddSaturates(t *testing.T) {
	e := newEnv(t)
	id1, m1, _ := e.ctx.NewMat(1, 1, 1)
	_ = m1.Set(0, 0, 0, 200)
	id2, m2, _ := e.ctx.NewMat(1, 1, 1)
	_ = m2.Set(0, 0, 0, 100)
	out := e.call(t, "cv.add", framework.Obj(id1), framework.Obj(id2))
	v, _ := e.matOf(t, out[0]).At(0, 0, 0)
	if v != 255 {
		t.Fatalf("saturating add = %d, want 255", v)
	}
}

func TestEqualizeHistSpreadsContrast(t *testing.T) {
	e := newEnv(t)
	// Low-contrast image: values clustered at 100..103.
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(100 + i%4)
	}
	id, _, _ := e.ctx.NewMatFromBytes(8, 8, 1, data)
	out := e.call(t, "cv.equalizeHist", framework.Obj(id))
	m := e.matOf(t, out[0])
	res, _ := object.PayloadBytes(m)
	lo, hi := res[0], res[0]
	for _, v := range res {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if int(hi)-int(lo) < 100 {
		t.Fatalf("equalize should stretch contrast, got [%d, %d]", lo, hi)
	}
}

func TestCvtColorGrayAndBack(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 4*4*3)
	for i := range data {
		data[i] = byte(i * 3)
	}
	id, _, _ := e.ctx.NewMatFromBytes(4, 4, 3, data)
	gray := e.call(t, "cv.cvtColor", framework.Obj(id), framework.Str("BGR2GRAY"))[0]
	gm := e.matOf(t, gray)
	if gm.Channels() != 1 {
		t.Fatal("gray should be single channel")
	}
	color := e.call(t, "cv.cvtColor", gray, framework.Str("GRAY2BGR"))[0]
	if e.matOf(t, color).Channels() != 3 {
		t.Fatal("GRAY2BGR should be 3-channel")
	}
	// cvtColor must be type-neutral.
	if api, _ := e.reg.Get("cv.cvtColor"); !api.Neutral {
		t.Fatal("cvtColor should be type-neutral")
	}
}

func TestSplitMergeRoundTrip(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 3*3*3)
	for i := range data {
		data[i] = byte(i * 2)
	}
	id, _, _ := e.ctx.NewMatFromBytes(3, 3, 3, data)
	planes := e.call(t, "cv.split", framework.Obj(id))
	if len(planes) != 3 {
		t.Fatalf("split produced %d planes", len(planes))
	}
	merged := e.call(t, "cv.merge", planes...)[0]
	got, _ := object.PayloadBytes(e.matOf(t, merged))
	if string(got) != string(data) {
		t.Fatal("split+merge should reconstruct the image")
	}
}

func TestGaussianBlurSmooths(t *testing.T) {
	e := newEnv(t)
	// Single bright pixel in the middle.
	data := make([]byte, 49)
	data[24] = 255
	id, _, _ := e.ctx.NewMatFromBytes(7, 7, 1, data)
	out := e.call(t, "cv.GaussianBlur", framework.Obj(id))
	m := e.matOf(t, out[0])
	center, _ := m.At(3, 3, 0)
	neighbor, _ := m.At(3, 4, 0)
	if center == 255 || neighbor == 0 {
		t.Fatalf("blur should spread energy: center=%d neighbor=%d", center, neighbor)
	}
	if center <= neighbor {
		t.Fatalf("center (%d) should remain brightest (%d)", center, neighbor)
	}
}

func TestErodeDilateOpposites(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 49)
	for r := 2; r <= 4; r++ {
		for c := 2; c <= 4; c++ {
			data[r*7+c] = 255
		}
	}
	id, _, _ := e.ctx.NewMatFromBytes(7, 7, 1, data)
	in := framework.Obj(id)
	er := e.matOf(t, e.call(t, "cv.erode", in)[0])
	di := e.matOf(t, e.call(t, "cv.dilate", in)[0])
	ec, _ := er.At(3, 3, 0)
	if ec != 255 {
		t.Fatal("erode should keep interior")
	}
	ee, _ := er.At(2, 2, 0)
	if ee != 0 {
		t.Fatal("erode should strip the boundary")
	}
	de, _ := di.At(1, 1, 0)
	if de != 255 {
		t.Fatal("dilate should grow the region")
	}
}

func TestMorphologyExModes(t *testing.T) {
	e := newEnv(t)
	in := e.grad(t)
	for _, mode := range []string{"open", "close", "gradient"} {
		out := e.call(t, "cv.morphologyEx", in, framework.Str(mode))
		if e.matOf(t, out[0]).Size() != 64 {
			t.Fatalf("morphologyEx %s wrong size", mode)
		}
	}
}

func TestCannyFindsEdge(t *testing.T) {
	e := newEnv(t)
	// Left half black, right half white: one vertical edge.
	data := make([]byte, 64)
	for r := 0; r < 8; r++ {
		for c := 4; c < 8; c++ {
			data[r*8+c] = 255
		}
	}
	id, _, _ := e.ctx.NewMatFromBytes(8, 8, 1, data)
	out := e.call(t, "cv.Canny", framework.Obj(id), framework.Int64(50))
	m := e.matOf(t, out[0])
	edge, _ := m.At(4, 4, 0)
	flat, _ := m.At(4, 6, 0)
	if edge != 255 || flat != 0 {
		t.Fatalf("canny edge=%d flat=%d", edge, flat)
	}
}

func TestResizeShapes(t *testing.T) {
	e := newEnv(t)
	out := e.call(t, "cv.resize", e.grad(t), framework.Int64(4), framework.Int64(16))
	m := e.matOf(t, out[0])
	if m.Rows() != 4 || m.Cols() != 16 {
		t.Fatalf("resize = %v", m)
	}
	if _, err := e.reg.MustGet("cv.resize").Exec(e.ctx, []framework.Value{e.grad(t), framework.Int64(0), framework.Int64(5)}); err == nil {
		t.Fatal("resize to zero should fail")
	}
}

func TestFlipTransposeRotate(t *testing.T) {
	e := newEnv(t)
	data := []byte{1, 2, 3, 4, 5, 6}
	id, _, _ := e.ctx.NewMatFromBytes(2, 3, 1, data)
	in := framework.Obj(id)

	fl := e.matOf(t, e.call(t, "cv.flip", in, framework.Int64(1))[0])
	v, _ := fl.At(0, 0, 0)
	if v != 3 {
		t.Fatalf("hflip[0][0] = %d, want 3", v)
	}
	tr := e.matOf(t, e.call(t, "cv.transpose", in)[0])
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatal("transpose shape wrong")
	}
	tv, _ := tr.At(0, 1, 0)
	if tv != 4 {
		t.Fatalf("transpose[0][1] = %d, want 4", tv)
	}
	ro := e.matOf(t, e.call(t, "cv.rotate", in)[0])
	if ro.Rows() != 3 || ro.Cols() != 2 {
		t.Fatal("rotate shape wrong")
	}
	rv, _ := ro.At(0, 0, 0) // 90° cw: old (1,0)=4 moves to (0,0)
	if rv != 4 {
		t.Fatalf("rotate[0][0] = %d, want 4", rv)
	}
}

func TestWarpPerspectiveIdentity(t *testing.T) {
	e := newEnv(t)
	in := e.grad(t)
	hid, h, _ := e.ctx.NewTensor(3, 3)
	_ = h.Set(1, 0, 0)
	_ = h.Set(1, 1, 1)
	_ = h.Set(1, 2, 2)
	out := e.call(t, "cv.warpPerspective", in, framework.Obj(hid))
	got, _ := object.PayloadBytes(e.matOf(t, out[0]))
	orig, _ := object.PayloadBytes(e.matOf(t, in))
	if string(got) != string(orig) {
		t.Fatal("identity warp should preserve the image")
	}
}

func TestGetRectSubPixCropAndBounds(t *testing.T) {
	e := newEnv(t)
	out := e.call(t, "cv.getRectSubPix", e.grad(t),
		framework.Int64(2), framework.Int64(2), framework.Int64(4), framework.Int64(3))
	m := e.matOf(t, out[0])
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("crop shape = %v", m)
	}
	v, _ := m.At(0, 0, 0)
	if v != byte((2*8+2)*4) {
		t.Fatalf("crop origin pixel = %d", v)
	}
	_, err := e.reg.MustGet("cv.getRectSubPix").Exec(e.ctx, []framework.Value{
		e.grad(t), framework.Int64(6), framework.Int64(6), framework.Int64(8), framework.Int64(8)})
	if err == nil {
		t.Fatal("out-of-bounds crop should fail")
	}
}

func TestFindContoursCountsBlobs(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 100)
	// Two separate 2x2 blobs.
	for _, at := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {6, 6}, {6, 7}, {7, 6}, {7, 7}} {
		data[at[0]*10+at[1]] = 255
	}
	id, _, _ := e.ctx.NewMatFromBytes(10, 10, 1, data)
	out := e.call(t, "cv.findContours", framework.Obj(id))
	if out[1].Int != 2 {
		t.Fatalf("found %d contours, want 2", out[1].Int)
	}
	// boundingRect of contour 0.
	rect := e.call(t, "cv.boundingRect", out[0], framework.Int64(0))
	if rect[0].Int != 1 || rect[1].Int != 1 || rect[2].Int != 2 || rect[3].Int != 2 {
		t.Fatalf("rect = %v", rect)
	}
	area := e.call(t, "cv.contourArea", out[0], framework.Int64(0))
	if area[0].Float != 4 {
		t.Fatalf("area = %v", area[0].Float)
	}
}

func TestCountNonZeroMeanMinMax(t *testing.T) {
	e := newEnv(t)
	data := []byte{0, 10, 0, 30}
	id, _, _ := e.ctx.NewMatFromBytes(2, 2, 1, data)
	in := framework.Obj(id)
	if n := e.call(t, "cv.countNonZero", in)[0].Int; n != 2 {
		t.Fatalf("countNonZero = %d", n)
	}
	if m := e.call(t, "cv.mean", in)[0].Float; m != 10 {
		t.Fatalf("mean = %v", m)
	}
	mm := e.call(t, "cv.minMaxLoc", in)
	if mm[0].Int != 0 || mm[1].Int != 30 {
		t.Fatalf("minMax = %v", mm)
	}
	if s := e.call(t, "cv.sum", in)[0].Int; s != 40 {
		t.Fatalf("sum = %d", s)
	}
}

func TestCalcHistAndCompare(t *testing.T) {
	e := newEnv(t)
	a := e.grad(t)
	h1 := e.call(t, "cv.calcHist", a)[0]
	h2 := e.call(t, "cv.calcHist", a)[0]
	same := e.call(t, "cv.compareHist", h1, h2)[0].Float
	if same != 0 {
		t.Fatalf("identical histograms should compare to 0, got %v", same)
	}
	idB, mB, _ := e.ctx.NewMat(8, 8, 1)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			_ = mB.Set(r, c, 0, 255)
		}
	}
	h3 := e.call(t, "cv.calcHist", framework.Obj(idB))[0]
	diff := e.call(t, "cv.compareHist", h1, h3)[0].Float
	if diff <= 0 {
		t.Fatalf("different histograms should compare > 0, got %v", diff)
	}
}

func TestRectangleDrawsInPlace(t *testing.T) {
	e := newEnv(t)
	in := e.grad(t)
	out := e.call(t, "cv.rectangle", in, framework.Int64(1), framework.Int64(1), framework.Int64(4), framework.Int64(4))
	if out[0].Obj != in.Obj {
		t.Fatal("rectangle should return its canvas argument")
	}
	m := e.matOf(t, in)
	v, _ := m.At(1, 1, 0)
	if v != 255 {
		t.Fatal("rectangle should draw on the original mat (in-place)")
	}
	inside, _ := m.At(2, 2, 0)
	if inside == 255 {
		t.Fatal("rectangle should not fill the interior")
	}
}

func TestDrawingOnReadOnlyMatFaults(t *testing.T) {
	e := newEnv(t)
	in := e.grad(t)
	m := e.matOf(t, in)
	if _, err := m.Space().ProtectRegion(m.Region(), 1 /* read-only */); err != nil {
		t.Fatal(err)
	}
	_, err := e.reg.MustGet("cv.rectangle").Exec(e.ctx, []framework.Value{in})
	if err == nil {
		t.Fatal("drawing on a read-only mat must fault")
	}
	if !strings.Contains(err.Error(), "fault") {
		t.Fatalf("expected a memory fault, got %v", err)
	}
}

func TestImshowAndWindowOps(t *testing.T) {
	e := newEnv(t)
	e.call(t, "cv.namedWindow", framework.Str("w"))
	e.call(t, "cv.imshow", framework.Str("w"), e.grad(t))
	if e.k.GUI.Windows() != 1 {
		t.Fatal("imshow should create/paint a window")
	}
	e.call(t, "cv.moveWindow", framework.Str("w"))
	e.call(t, "cv.setWindowTitle", framework.Str("w"))
	e.call(t, "cv.destroyAllWindows")
	if e.k.GUI.Windows() != 0 {
		t.Fatal("destroyAllWindows should close windows")
	}
}

func TestPollKeyQueue(t *testing.T) {
	e := newEnv(t)
	e.k.GUI.PushKey('s')
	if k := e.call(t, "cv.pollKey")[0].Int; k != 's' {
		t.Fatalf("pollKey = %d", k)
	}
	if k := e.call(t, "cv.waitKey")[0].Int; k != -1 {
		t.Fatalf("drained waitKey = %d", k)
	}
}

func TestCascadeDetect(t *testing.T) {
	e := newEnv(t)
	e.k.FS.WriteFile("/model.xml", simcv.EncodeClassifier(100, 4))
	model := e.call(t, "cv.CascadeClassifier", framework.Str("/model.xml"))[0]
	// Bright 4x4 block at top-left on dark background.
	data := make([]byte, 144)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			data[r*12+c] = 250
		}
	}
	id, _, _ := e.ctx.NewMatFromBytes(12, 12, 1, data)
	out := e.call(t, "cv.CascadeClassifier.detectMultiScale", model, framework.Obj(id))
	if out[1].Int < 1 {
		t.Fatal("should detect the bright window")
	}
	dets, _ := e.ctx.Tensor(out[0])
	x, _ := dets.At(0, 0)
	y, _ := dets.At(0, 1)
	if x != 0 || y != 0 {
		t.Fatalf("first detection at (%v,%v), want (0,0)", x, y)
	}
}

func TestCascadeRejectsGarbageModel(t *testing.T) {
	e := newEnv(t)
	e.k.FS.WriteFile("/bad.xml", []byte("not a cascade"))
	if _, err := e.reg.MustGet("cv.CascadeClassifier").Exec(e.ctx, []framework.Value{framework.Str("/bad.xml")}); err == nil {
		t.Fatal("garbage model should fail")
	}
}

func TestKalmanPredictCorrect(t *testing.T) {
	e := newEnv(t)
	id, st, _ := e.ctx.NewTensor(4)
	_ = st.SetValues([]float64{10, 20, 1, 2})
	out := e.call(t, "cv.KalmanFilter.predict", framework.Obj(id))
	if out[0].Float != 11 || out[1].Float != 22 {
		t.Fatalf("predict = %v", out)
	}
	// State mutated in place — the shared-state property.
	x, _ := st.AtFlat(0)
	if x != 11 {
		t.Fatal("predict should update the shared state tensor")
	}
	out = e.call(t, "cv.KalmanFilter.correct", framework.Obj(id), framework.Float64(15), framework.Float64(22))
	if out[0].Float != 13 { // 11 + 0.5*(15-11)
		t.Fatalf("correct x = %v", out[0].Float)
	}
}

func TestOpticalFlowRoundTrip(t *testing.T) {
	e := newEnv(t)
	fid, flow, _ := e.ctx.NewTensor(2, 2, 2)
	_ = flow.SetValues([]float64{1, 0, 0, 1, -1, 0, 0, -1})
	e.call(t, "cv.writeOpticalFlow", framework.Str("/f.flo"), framework.Obj(fid))
	out := e.call(t, "cv.readOpticalFlow", framework.Str("/f.flo"))
	rt, _ := e.ctx.Tensor(out[0])
	v, _ := rt.At(1, 0, 0)
	if v != -1 {
		t.Fatalf("flow round trip = %v", v)
	}
}

func TestVideoWriterAppends(t *testing.T) {
	e := newEnv(t)
	w := e.call(t, "cv.VideoWriter", framework.Str("/out.vid"))[0]
	e.call(t, "cv.VideoWriter.write", w, e.grad(t))
	e.call(t, "cv.VideoWriter.write", w, e.grad(t))
	if size := e.k.FS.Size("/out.vid"); size != 2*(16+64) {
		t.Fatalf("video size = %d", size)
	}
}

func TestPyrDownUp(t *testing.T) {
	e := newEnv(t)
	down := e.matOf(t, e.call(t, "cv.pyrDown", e.grad(t))[0])
	if down.Rows() != 4 || down.Cols() != 4 {
		t.Fatalf("pyrDown shape = %v", down)
	}
	up := e.matOf(t, e.call(t, "cv.pyrUp", e.grad(t))[0])
	if up.Rows() != 16 || up.Cols() != 16 {
		t.Fatalf("pyrUp shape = %v", up)
	}
}

func TestMatchTemplateFindsPatch(t *testing.T) {
	e := newEnv(t)
	img := make([]byte, 100)
	for r := 4; r < 7; r++ {
		for c := 4; c < 7; c++ {
			img[r*10+c] = 200
		}
	}
	iid, _, _ := e.ctx.NewMatFromBytes(10, 10, 1, img)
	tpl := make([]byte, 9)
	for i := range tpl {
		tpl[i] = 200
	}
	tid, _, _ := e.ctx.NewMatFromBytes(3, 3, 1, tpl)
	out := e.call(t, "cv.matchTemplate", framework.Obj(iid), framework.Obj(tid))
	resp := e.matOf(t, out[0])
	best, _ := resp.At(4, 4, 0)
	corner, _ := resp.At(0, 0, 0)
	if best <= corner {
		t.Fatalf("match at patch (%d) should beat corner (%d)", best, corner)
	}
}

func TestAllDPAPIsHaveMemOps(t *testing.T) {
	for _, a := range simcv.Registry().All() {
		if a.TrueType != framework.TypeProcessing {
			continue
		}
		found := false
		for _, op := range a.StaticOps {
			if op.DstValid && op.Dst == framework.StorageMem && op.Src == framework.StorageMem {
				found = true
			}
		}
		if !found {
			t.Errorf("%s lacks W(MEM, R(MEM)) static op", a.Name)
		}
	}
}

func TestVulnerableAPIsMatchTable5(t *testing.T) {
	reg := simcv.Registry()
	for api, cve := range map[string]string{
		"cv.imread":            "CVE-2017-12597",
		"cv.imshow":            "CVE-2019-15939",
		"cv.warpPerspective":   "CVE-2019-5064",
		"cv.equalizeHist":      "CVE-2019-14492",
		"cv.findContours":      "CVE-2019-14493",
		"cv.VideoCapture.read": "CVE-2017-12605",
	} {
		a := reg.MustGet(api)
		if !a.HasCVE(cve) {
			t.Errorf("%s should carry %s", api, cve)
		}
	}
}
