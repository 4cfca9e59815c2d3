package simcv_test

import (
	"bytes"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/object"
)

// TestViewKernelsLeaveInputsUnchanged runs every kernel that reads its
// input mats through a read-only snapshot on inputs of more than a page,
// whose snapshots are the regions' own slabs, and requires each call to
// succeed and leave every input region's bytes as they were: a kernel that
// wrote its view would write the region itself. Each runs on three-channel
// and on one-channel inputs, whose gray image (grayOf) is the view itself.
func TestViewKernelsLeaveInputsUnchanged(t *testing.T) {
	// 1,920 pixels are two pages at 3 channels; 4,608 pixels two pages at 1.
	shapes := []struct{ rows, cols, ch int }{{48, 40, 3}, {72, 64, 1}}
	oneMat := []string{
		"cv.CascadeClassifier.detectMultiScale", "cv.Canny", "cv.GaussianBlur",
		"cv.HOGDescriptor.compute", "cv.HoughCircles", "cv.HoughLines",
		"cv.LUT", "cv.Laplacian", "cv.ORB.detect", "cv.Scharr", "cv.Sobel",
		"cv.adaptiveThreshold", "cv.bilateralFilter", "cv.bitwise_not",
		"cv.blur", "cv.boxFilter", "cv.calcHist", "cv.connectedComponents",
		"cv.convertScaleAbs", "cv.copyMakeBorder", "cv.copyTo",
		"cv.cornerHarris", "cv.countNonZero", "cv.cvtColor", "cv.dilate",
		"cv.distanceTransform", "cv.equalizeHist", "cv.erode",
		"cv.filter2D", "cv.findContours", "cv.flip", "cv.getRectSubPix",
		"cv.getStructuringElement", "cv.goodFeaturesToTrack", "cv.imshow",
		"cv.inRange", "cv.integral", "cv.mean", "cv.medianBlur",
		"cv.minMaxLoc", "cv.moments", "cv.morphologyEx", "cv.multiply",
		"cv.norm", "cv.normalize", "cv.pow", "cv.pyrDown", "cv.pyrUp",
		"cv.reduce", "cv.remap", "cv.resize", "cv.rotate", "cv.sepFilter2D",
		"cv.setTo", "cv.split", "cv.sqrt", "cv.sum", "cv.threshold",
		"cv.transpose", "cv.undistort", "cv.warpAffine", "cv.warpPerspective",
	}
	twoMats := []string{
		"cv.absdiff", "cv.add", "cv.addWeighted", "cv.bitwise_and",
		"cv.bitwise_or", "cv.bitwise_xor", "cv.calcOpticalFlowFarneback",
		"cv.compare", "cv.matchShapes", "cv.matchTemplate", "cv.max",
		"cv.min", "cv.phaseCorrelate", "cv.subtract",
	}
	check := func(t *testing.T, e *env, name string, inputs []framework.Value, args []framework.Value) {
		t.Helper()
		var want [][]byte
		for _, in := range inputs {
			m := e.matOf(t, in)
			if m.Size() <= mem.PageSize {
				t.Fatalf("%s: a %d-byte input is not larger than a page", name, m.Size())
			}
			b, err := object.PayloadBytes(m)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}
		e.call(t, name, args...)
		for i, in := range inputs {
			if got, _ := object.PayloadBytes(e.matOf(t, in)); !bytes.Equal(got, want[i]) {
				t.Fatalf("%s changed the bytes of its input %d", name, i)
			}
		}
	}
	pixel := func(i int) byte { return byte(i*7 + i/97) }
	for _, name := range oneMat {
		t.Run(name, func(t *testing.T) {
			for _, sh := range shapes {
				e := newEnv(t)
				img := e.fixedMat(t, pixel, sh.rows, sh.cols, sh.ch)
				args := []framework.Value{img}
				switch name {
				case "cv.CascadeClassifier.detectMultiScale":
					e.k.FS.WriteFile("/model.xml", simcv.EncodeClassifier(100, 4))
					model := e.call(t, "cv.CascadeClassifier", framework.Str("/model.xml"))[0]
					args = []framework.Value{model, img}
				case "cv.imshow":
					args = []framework.Value{framework.Str("view"), img}
				case "cv.filter2D", "cv.warpAffine", "cv.warpPerspective":
					identity := e.fixedTensor(t, func(i int) float64 { return float64(1 - min(i%4, 1)) }, 3, 3)
					args = append(args, identity)
				case "cv.remap":
					flow := e.fixedTensor(t, func(i int) float64 { return float64(i%5) - 2 }, sh.rows, sh.cols, 2)
					args = append(args, flow)
				}
				check(t, e, name, []framework.Value{img}, args)
			}
		})
	}
	for _, name := range twoMats {
		t.Run(name, func(t *testing.T) {
			for _, sh := range shapes {
				e := newEnv(t)
				a := e.fixedMat(t, pixel, sh.rows, sh.cols, sh.ch)
				b := e.fixedMat(t, func(i int) byte { return pixel(i + 11) }, sh.rows, sh.cols, sh.ch)
				check(t, e, name, []framework.Value{a, b}, []framework.Value{a, b})
			}
		})
	}
	t.Run("cv.merge", func(t *testing.T) {
		e := newEnv(t)
		var planes []framework.Value
		for c := 0; c < 3; c++ {
			planes = append(planes, e.fixedMat(t, func(i int) byte { return pixel(i + c) }, 3*48, 40, 1))
		}
		check(t, e, "cv.merge", planes, planes)
	})
}
