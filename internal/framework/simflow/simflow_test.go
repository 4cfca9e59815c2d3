package simflow_test

import (
	"errors"
	"math"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/simflow"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
)

type env struct {
	k   *kernel.Kernel
	ctx *framework.Ctx
	reg *framework.Registry
}

func newEnv(t *testing.T) *env {
	t.Helper()
	k := kernel.New()
	return &env{k: k, ctx: framework.NewCtx(k, k.Spawn("test")), reg: simflow.Registry()}
}

func (e *env) call(t *testing.T, name string, args ...framework.Value) []framework.Value {
	t.Helper()
	out, err := e.reg.MustGet(name).Exec(e.ctx, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func (e *env) tensor2D(t *testing.T, rows, cols int, vals []float64) framework.Value {
	t.Helper()
	id, tt, err := e.ctx.NewTensor(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}

func TestGetFileMemoryCopyViaFile(t *testing.T) {
	e := newEnv(t)
	e.k.Net.QueueInbound("storage.googleapis.com", []byte("weights-blob"))
	out := e.call(t, "tf.keras.utils.get_file", framework.Str("w.bin"))
	b, err := e.ctx.Blob(out[0])
	if err != nil {
		t.Fatal(err)
	}
	got, _ := b.Bytes()
	if string(got) != "weights-blob" {
		t.Fatalf("get_file = %q", got)
	}
	if !e.k.FS.Exists("/tmp/w.bin") {
		t.Fatal("get_file should stage through a temp file")
	}
	// Static ops must expose the full chain (for the §4.2.1 reduction).
	api := e.reg.MustGet("tf.keras.utils.get_file")
	if len(api.StaticOps) != 3 {
		t.Fatalf("get_file static ops = %v", api.StaticOps)
	}
}

func TestImageDatasetFromDirectory(t *testing.T) {
	e := newEnv(t)
	e.k.FS.WriteFile("/ds/a", simflow.EncodeDataset([]float64{1, 2}))
	e.k.FS.WriteFile("/ds/b", simflow.EncodeDataset([]float64{3}))
	out := e.call(t, "tf.keras.preprocessing.image_dataset_from_directory", framework.Str("/ds/"))
	tt, _ := e.ctx.Tensor(out[0])
	vals, _ := tt.Values()
	if len(vals) != 3 || vals[2] != 3 {
		t.Fatalf("dataset = %v", vals)
	}
	if _, err := e.reg.MustGet("tf.keras.preprocessing.image_dataset_from_directory").
		Exec(e.ctx, []framework.Value{framework.Str("/empty/")}); err == nil {
		t.Fatal("empty directory should fail")
	}
}

func TestConv3d(t *testing.T) {
	e := newEnv(t)
	id, tt, _ := e.ctx.NewTensor(3, 3, 3)
	vals := make([]float64, 27)
	for i := range vals {
		vals[i] = 1
	}
	_ = tt.SetValues(vals)
	out := e.call(t, "tf.nn.conv3d", framework.Obj(id))
	ot, _ := e.ctx.Tensor(out[0])
	v, _ := ot.AtFlat(0)
	if ot.Len() != 1 || v != 1 {
		t.Fatalf("conv3d = len %d, v %v", ot.Len(), v)
	}
}

func TestConv3dExploit(t *testing.T) {
	e := newEnv(t)
	// The trigger's bytes, one per element, as tensors.Exploit reads them.
	var trig []float64
	for _, b := range framework.Trigger("CVE-2021-29513", nil) {
		trig = append(trig, float64(b))
	}
	// Pad to a 3x3x3 cube.
	for len(trig) < 27 {
		trig = append(trig, 0)
	}
	id, tt, _ := e.ctx.NewTensor(3, 3, 3)
	_ = tt.SetValues(trig[:27])
	_, err := e.reg.MustGet("tf.nn.conv3d").Exec(e.ctx, []framework.Value{framework.Obj(id)})
	if !errors.Is(err, framework.ErrExploited) {
		t.Fatalf("conv3d exploit = %v", err)
	}
	if e.ctx.P.Alive() {
		t.Fatal("process should crash")
	}
}

func TestPoolsAndMatmulCVEAssignment(t *testing.T) {
	e := newEnv(t)
	for api, cve := range map[string]string{
		"tf.nn.conv3d":   "CVE-2021-29513",
		"tf.nn.avg_pool": "CVE-2021-29618",
		"tf.nn.max_pool": "CVE-2021-37661",
		"tf.matmul":      "CVE-2021-41198",
	} {
		if !e.reg.MustGet(api).HasCVE(cve) {
			t.Errorf("%s should carry %s", api, cve)
		}
	}
}

func TestAvgMaxPool(t *testing.T) {
	e := newEnv(t)
	in := e.tensor2D(t, 2, 2, []float64{1, 3, 5, 7})
	av, _ := e.ctx.Tensor(e.call(t, "tf.nn.avg_pool", in)[0])
	v, _ := av.AtFlat(0)
	if v != 4 {
		t.Fatalf("avg_pool = %v", v)
	}
	mx, _ := e.ctx.Tensor(e.call(t, "tf.nn.max_pool", in)[0])
	v, _ = mx.AtFlat(0)
	if v != 7 {
		t.Fatalf("max_pool = %v", v)
	}
}

func TestMatmulShapes(t *testing.T) {
	e := newEnv(t)
	a := e.tensor2D(t, 1, 2, []float64{2, 3})
	b := e.tensor2D(t, 2, 1, []float64{4, 5})
	out, _ := e.ctx.Tensor(e.call(t, "tf.matmul", a, b)[0])
	v, _ := out.AtFlat(0)
	if v != 23 {
		t.Fatalf("matmul = %v", v)
	}
	if _, err := e.reg.MustGet("tf.matmul").Exec(e.ctx, []framework.Value{a, a}); err == nil {
		t.Fatal("incompatible matmul should fail")
	}
}

func TestEstimatorTrainAccumulatesState(t *testing.T) {
	e := newEnv(t)
	stID, st, _ := e.ctx.NewTensor(2)
	data := e.tensor2D(t, 1, 4, []float64{1, 1, 1, 1})
	e.call(t, "tf.estimator.DNNClassifier.train", framework.Obj(stID), data)
	e.call(t, "tf.estimator.DNNClassifier.train", framework.Obj(stID), data)
	steps, _ := st.AtFlat(0)
	loss, _ := st.AtFlat(1)
	if steps != 2 {
		t.Fatalf("steps = %v", steps)
	}
	if loss <= 0 {
		t.Fatalf("loss EMA = %v", loss)
	}
	api := e.reg.MustGet("tf.estimator.DNNClassifier.train")
	if !api.Stateful || !api.SharedState {
		t.Fatal("train should be stateful+shared")
	}
}

// TestEstimatorTrainReportsRefusedStore refuses the first, then the
// second, of train's two state stores through the space's access hook:
// each call must fail, not report a loss over state it did not update.
func TestEstimatorTrainReportsRefusedStore(t *testing.T) {
	refused := errors.New("store refused")
	for _, refuse := range []int{1, 2} {
		e := newEnv(t)
		stID, st, _ := e.ctx.NewTensor(2)
		data := e.tensor2D(t, 1, 4, []float64{1, 1, 1, 1})
		stores := 0
		space := e.ctx.P.Space()
		space.SetAccessHook(func(_ mem.Addr, _ int, kind mem.AccessKind) error {
			if kind == mem.AccessWrite {
				if stores++; stores == refuse {
					return refused
				}
			}
			return nil
		})
		out, err := e.reg.MustGet("tf.estimator.DNNClassifier.train").
			Exec(e.ctx, []framework.Value{framework.Obj(stID), data})
		space.SetAccessHook(nil)
		if !errors.Is(err, refused) {
			t.Fatalf("store %d refused: train = %v, %v; want the refusal", refuse, out, err)
		}
		if steps, _ := st.AtFlat(0); steps != float64(refuse-1) {
			t.Fatalf("store %d refused: steps = %v, want %d", refuse, steps, refuse-1)
		}
	}
}

func TestOneHotResizeCast(t *testing.T) {
	e := newEnv(t)
	oh, _ := e.ctx.Tensor(e.call(t, "tf.one_hot", framework.Int64(2), framework.Int64(4))[0])
	v, _ := oh.AtFlat(2)
	if oh.Len() != 4 || v != 1 {
		t.Fatal("one_hot wrong")
	}
	if _, err := e.reg.MustGet("tf.one_hot").Exec(e.ctx, []framework.Value{framework.Int64(9), framework.Int64(4)}); err == nil {
		t.Fatal("out-of-range one_hot should fail")
	}
	in := e.tensor2D(t, 2, 2, []float64{1, 2, 3, 4})
	rs, _ := e.ctx.Tensor(e.call(t, "tf.image.resize", in, framework.Int64(4), framework.Int64(4))[0])
	if sh := rs.Shape(); sh[0] != 4 || sh[1] != 4 {
		t.Fatalf("resize shape = %v", sh)
	}
	ct, _ := e.ctx.Tensor(e.call(t, "tf.cast", e.tensor2D(t, 1, 2, []float64{1.7, -2.3}))[0])
	a, _ := ct.AtFlat(0)
	b, _ := ct.AtFlat(1)
	if a != 1 || b != -2 {
		t.Fatalf("cast = %v %v", a, b)
	}
}

func TestReduceMeanArgmax(t *testing.T) {
	e := newEnv(t)
	in := e.tensor2D(t, 1, 4, []float64{1, 5, 2, 0})
	if got := e.call(t, "tf.reduce_mean", in)[0].Float; got != 2 {
		t.Fatalf("reduce_mean = %v", got)
	}
	if got := e.call(t, "tf.argmax", in)[0].Int; got != 1 {
		t.Fatalf("argmax = %v", got)
	}
}

func TestSaveWeights(t *testing.T) {
	e := newEnv(t)
	w := e.tensor2D(t, 1, 2, []float64{0.5, -0.5})
	e.call(t, "tf.keras.Model.save_weights", w, framework.Str("/w"))
	raw, err := e.k.FS.ReadFile("/w")
	if err != nil || len(raw) != 16 {
		t.Fatalf("saved = %d bytes, %v", len(raw), err)
	}
	e.call(t, "tf.keras.preprocessing.image.save_img", w, framework.Str("/img"))
	if !e.k.FS.Exists("/img") {
		t.Fatal("save_img should write")
	}
}

func TestDebugDumpSharedState(t *testing.T) {
	e := newEnv(t)
	e.call(t, "tf.debugging.experimental.enable_dump_debug_info", framework.Str("/dbg"))
	if !e.k.FS.Exists("/dbg/dump.log") {
		t.Fatal("debug dump should write a log")
	}
}

func TestSoftplusMonotone(t *testing.T) {
	e := newEnv(t)
	in := e.tensor2D(t, 1, 3, []float64{-5, 0, 5})
	out, _ := e.ctx.Tensor(e.call(t, "tf.nn.softplus", in)[0])
	a, _ := out.AtFlat(0)
	b, _ := out.AtFlat(1)
	c, _ := out.AtFlat(2)
	if !(a < b && b < c) || math.Abs(b-math.Log(2)) > 1e-9 {
		t.Fatalf("softplus = %v %v %v", a, b, c)
	}
}
