package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/framework/simtorch"
	"freepart.dev/freepart/internal/kernel"
)

func TestDeterministicGeneration(t *testing.T) {
	a, b := New(42), New(42)
	if !bytes.Equal(a.EncodedImage(8, 8, 1), b.EncodedImage(8, 8, 1)) {
		t.Fatal("same seed should generate identical images")
	}
	c := New(43)
	if bytes.Equal(a.EncodedImage(8, 8, 1), c.EncodedImage(8, 8, 1)) {
		t.Fatal("different seeds should differ")
	}
}

func TestImageHasBrightRegions(t *testing.T) {
	_, _, _, img, err := simcv.DecodeImage(New(1).EncodedImage(16, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	bright := 0
	for _, v := range img {
		if v >= 200 {
			bright++
		}
	}
	if bright < 4 {
		t.Fatalf("only %d bright pixels; detectors need features", bright)
	}
}

func TestEncodedImageDecodes(t *testing.T) {
	enc := New(1).EncodedImage(6, 4, 3)
	r, c, ch, data, err := simcv.DecodeImage(enc)
	if err != nil || r != 6 || c != 4 || ch != 3 || len(data) != 72 {
		t.Fatalf("decode = %d %d %d (%d bytes), %v", r, c, ch, len(data), err)
	}
}

func TestOMRSheetMarksMatchAnswers(t *testing.T) {
	g := New(7)
	img, answers, rows, cols := g.OMRSheet(4, 3, 6)
	if rows != 24 || cols != 18 || len(answers) != 4 {
		t.Fatalf("sheet %dx%d answers %v", rows, cols, answers)
	}
	for q, a := range answers {
		// The marked bubble's centre is bright; others dark.
		for o := 0; o < 3; o++ {
			centre := img[(q*6+3)*cols+o*6+3]
			if o == a && centre != 255 {
				t.Fatalf("q%d marked option %d not filled", q, a)
			}
			if o != a && centre != 0 {
				t.Fatalf("q%d option %d spuriously filled", q, o)
			}
		}
	}
}

func TestEncodedOMRSheetDecodes(t *testing.T) {
	enc, answers := New(7).EncodedOMRSheet(4, 3, 6)
	if _, _, _, _, err := simcv.DecodeImage(enc); err != nil {
		t.Fatal(err)
	}
	if len(answers) != 4 {
		t.Fatalf("answers = %v", answers)
	}
}

func TestVideoFrames(t *testing.T) {
	cam := kernel.NewCamera("/dev/x")
	New(2).VideoFrames(cam, 3, 8, 8, 1)
	if cam.Pending() != 3 {
		t.Fatalf("pending = %d", cam.Pending())
	}
	frame, ok := cam.Read()
	if !ok {
		t.Fatal("no frame")
	}
	if _, _, _, _, err := simcv.DecodeImage(frame); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetRange(t *testing.T) {
	enc := New(3).EncodedDataset(256)
	if len(enc) != 256*8 {
		t.Fatal("encoded dataset wrong size")
	}
	for i := 0; i < len(enc); i += 8 {
		if v := math.Float64frombits(binary.BigEndian.Uint64(enc[i:])); v < -1 || v >= 1 {
			t.Fatalf("sample %v out of [-1,1)", v)
		}
	}
}

func TestModelDecodes(t *testing.T) {
	raw := New(4).Model(8, 4)
	layers, err := simtorch.DecodeModel(raw)
	if err != nil || len(layers) != 2 || len(layers[0]) != 8 || len(layers[1]) != 4 {
		t.Fatalf("model = %v, %v", layers, err)
	}
	for _, v := range layers[0] {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("weight %v out of [-0.5,0.5)", v)
		}
	}
}

func TestTextAndMNIST(t *testing.T) {
	txt := New(5).Text(10)
	if len(bytes.Fields(txt)) != 10 {
		t.Fatalf("text words = %d", len(bytes.Fields(txt)))
	}
	if len(New(5).MNISTFile(3)) != 3*64*8 {
		t.Fatal("mnist file wrong size")
	}
}

func TestFilePlanProvisions(t *testing.T) {
	k := kernel.New()
	paths := New(6).FilePlan(k, "/app", 3, 8, 8, 1, 0)
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		if !k.FS.Exists(p) {
			t.Fatalf("missing %s", p)
		}
	}
	for _, f := range []string{"/app/classifier.xml", "/app/model.pt", "/app/data.bin"} {
		if !k.FS.Exists(f) {
			t.Fatalf("missing %s", f)
		}
	}
	// featN <= 0 defaults to 512: layer 0 holds 2048 weights.
	raw, _ := k.FS.ReadFile("/app/model.pt")
	layers, err := simtorch.DecodeModel(raw)
	if err != nil || len(layers[0]) != 2048 {
		t.Fatalf("default model layer 0 = %d weights, %v", len(layers[0]), err)
	}
}
