package simtorch_test

import (
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/simtorch"
	"freepart.dev/freepart/internal/kernel"
)

type env struct {
	k   *kernel.Kernel
	ctx *framework.Ctx
	reg *framework.Registry
}

func newEnv(t *testing.T) *env {
	t.Helper()
	k := kernel.New()
	return &env{k: k, ctx: framework.NewCtx(k, k.Spawn("test")), reg: simtorch.Registry()}
}

func (e *env) call(t *testing.T, name string, args ...framework.Value) []framework.Value {
	t.Helper()
	out, err := e.reg.MustGet(name).Exec(e.ctx, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func (e *env) tensorVal(t *testing.T, vals ...float64) framework.Value {
	t.Helper()
	id, tt, err := e.ctx.NewTensor(len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	return framework.Obj(id)
}

func (e *env) valuesOf(t *testing.T, v framework.Value) []float64 {
	t.Helper()
	tt, err := e.ctx.Tensor(v)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := tt.Values()
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestModelEncodeDecode(t *testing.T) {
	layers := [][]float64{{1, 2, 3}, {4.5}}
	got, err := simtorch.DecodeModel(simtorch.EncodeModel(layers))
	if err != nil || len(got) != 2 || got[0][1] != 2 || got[1][0] != 4.5 {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := simtorch.DecodeModel([]byte("nope")); err == nil {
		t.Fatal("garbage model should fail")
	}
	trunc := simtorch.EncodeModel(layers)
	if _, err := simtorch.DecodeModel(trunc[:len(trunc)-4]); err == nil {
		t.Fatal("truncated model should fail")
	}
}

// TestEncodeModelGolden pins the model file bytes and requires one
// allocation per encode: apps write models of 131,088 weights during set-up,
// where growing the output 8 bytes at a time copied it about five times.
func TestEncodeModelGolden(t *testing.T) {
	layers := [][]float64{{1.5, -2}, {}}
	const want = "50544d31" + "00000002" + // magic, 2 layers
		"00000002" + "3ff8000000000000" + "c000000000000000" + // 1.5, -2
		"00000000" // an empty layer
	if got := hex.EncodeToString(simtorch.EncodeModel(layers)); got != want {
		t.Fatalf("EncodeModel = %s, want %s", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { simtorch.EncodeModel(layers) }); allocs != 1 {
		t.Fatalf("EncodeModel made %.0f allocs, want 1", allocs)
	}
}

func TestLoadAndForward(t *testing.T) {
	e := newEnv(t)
	// Identity-ish single layer: 2x2 weights [[1,0],[0,1]].
	e.k.FS.WriteFile("/m.pt", simtorch.EncodeModel([][]float64{{1, 0, 0, 1}}))
	model := e.call(t, "torch.load", framework.Str("/m.pt"))[0]
	in := e.tensorVal(t, 3, 7)
	out := e.call(t, "torch.Module.forward", model, in)
	got := e.valuesOf(t, out[0])
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("forward = %v", got)
	}
}

func TestForwardMultiLayerRelu(t *testing.T) {
	e := newEnv(t)
	// Layer 1: 2->2 with a negative path; layer 2: 2->1 sum.
	e.k.FS.WriteFile("/m.pt", simtorch.EncodeModel([][]float64{
		{1, 0, -1, 0}, // out = [x0, -x0] -> relu -> [x0, 0]
		{1, 1},        // sum
	}))
	model := e.call(t, "torch.load", framework.Str("/m.pt"))[0]
	out := e.call(t, "torch.Module.forward", model, e.tensorVal(t, 5, 99))
	got := e.valuesOf(t, out[0])
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("forward = %v (relu should zero the negative path)", got)
	}
}

func TestTrojanModelDetonatesAtForward(t *testing.T) {
	e := newEnv(t)
	clean := simtorch.EncodeModel([][]float64{{1}})
	trojan := append(clean, framework.Trigger(simtorch.CVEStegoNet, []byte("forkbomb"))...)
	e.k.FS.WriteFile("/trojan.pt", trojan)
	// Loading succeeds (the trojan hides in the weights).
	model := e.call(t, "torch.load", framework.Str("/trojan.pt"))[0]
	if !e.ctx.P.Alive() {
		t.Fatal("load should not detonate")
	}
	// Forward detonates.
	_, err := e.reg.MustGet("torch.Module.forward").Exec(e.ctx, []framework.Value{model, e.tensorVal(t, 1)})
	if !errors.Is(err, framework.ErrExploited) {
		t.Fatalf("forward on trojan = %v", err)
	}
}

func TestHubLoadDownloadsViaFileCache(t *testing.T) {
	e := newEnv(t)
	payload := simtorch.EncodeModel([][]float64{{2}})
	e.k.Net.QueueInbound("hub.pytorch.org", payload)
	out := e.call(t, "torch.hub.load", framework.Str("resnet"))
	b, err := e.ctx.Blob(out[0])
	if err != nil {
		t.Fatal(err)
	}
	got, _ := b.Bytes()
	if string(got) != string(payload) {
		t.Fatal("hub.load should return the downloaded bytes")
	}
	if !e.k.FS.Exists("/cache/hub/resnet") {
		t.Fatal("hub.load should cache to disk (memory-copy-via-file)")
	}
}

func TestMNISTAndDataLoader(t *testing.T) {
	e := newEnv(t)
	vals := make([]float64, 64*3) // 3 samples
	for i := range vals {
		vals[i] = float64(i)
	}
	raw := simtorch.EncodeModel(nil)[:0] // build big-endian float64s inline
	for _, v := range vals {
		var b [8]byte
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (56 - 8*i))
		}
		raw = append(raw, b[:]...)
	}
	e.k.FS.WriteFile("/data/mnist.bin", raw)
	ds := e.call(t, "torchvision.datasets.MNIST", framework.Str("/data"))[0]
	dt, _ := e.ctx.Tensor(ds)
	if sh := dt.Shape(); sh[0] != 3 || sh[1] != 64 {
		t.Fatalf("dataset shape = %v", sh)
	}
	batch := e.call(t, "torch.utils.data.DataLoader", ds, framework.Int64(2))[0]
	bt, _ := e.ctx.Tensor(batch)
	if sh := bt.Shape(); sh[0] != 2 || sh[1] != 64 {
		t.Fatalf("batch shape = %v", sh)
	}
	if api := e.reg.MustGet("torch.utils.data.DataLoader"); !api.Neutral {
		t.Fatal("DataLoader should be type-neutral")
	}
}

func TestElementwiseAndBinops(t *testing.T) {
	e := newEnv(t)
	in := e.tensorVal(t, -2, 0, 3)
	relu := e.valuesOf(t, e.call(t, "torch.relu", in)[0])
	if relu[0] != 0 || relu[2] != 3 {
		t.Fatalf("relu = %v", relu)
	}
	a, b := e.tensorVal(t, 1, 2), e.tensorVal(t, 10, 20)
	sum := e.valuesOf(t, e.call(t, "torch.add", a, b)[0])
	if sum[0] != 11 || sum[1] != 22 {
		t.Fatalf("add = %v", sum)
	}
	if _, err := e.reg.MustGet("torch.add").Exec(e.ctx, []framework.Value{a, e.tensorVal(t, 1, 2, 3)}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestMatmul(t *testing.T) {
	e := newEnv(t)
	aid, at, _ := e.ctx.NewTensor(2, 3)
	_ = at.SetValues([]float64{1, 2, 3, 4, 5, 6})
	bid, bt, _ := e.ctx.NewTensor(3, 2)
	_ = bt.SetValues([]float64{7, 8, 9, 10, 11, 12})
	out := e.call(t, "torch.matmul", framework.Obj(aid), framework.Obj(bid))
	got := e.valuesOf(t, out[0])
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matmul = %v, want %v", got, want)
		}
	}
}

func TestConv2dAndPools(t *testing.T) {
	e := newEnv(t)
	iid, it, _ := e.ctx.NewTensor(4, 4)
	_ = it.SetValues([]float64{
		1, 1, 1, 1,
		1, 9, 1, 1,
		1, 1, 1, 1,
		1, 1, 1, 1,
	})
	kid, kt, _ := e.ctx.NewTensor(3, 3)
	_ = kt.SetValues([]float64{0, 0, 0, 0, 1, 0, 0, 0, 0}) // identity kernel
	conv := e.valuesOf(t, e.call(t, "torch.nn.Conv2d", framework.Obj(iid), framework.Obj(kid))[0])
	if len(conv) != 4 || conv[0] != 9 {
		t.Fatalf("conv = %v", conv)
	}
	mx := e.valuesOf(t, e.call(t, "torch.max_pool2d", framework.Obj(iid))[0])
	if mx[0] != 9 || mx[3] != 1 {
		t.Fatalf("maxpool = %v", mx)
	}
	av := e.valuesOf(t, e.call(t, "torch.avg_pool2d", framework.Obj(iid))[0])
	if av[0] != 3 {
		t.Fatalf("avgpool = %v", av)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	e := newEnv(t)
	out := e.valuesOf(t, e.call(t, "torch.softmax", e.tensorVal(t, 1, 2, 3))[0])
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("softmax not monotone: %v", out)
	}
}

func TestArgmaxReduceOps(t *testing.T) {
	e := newEnv(t)
	in := e.tensorVal(t, 3, 9, 1)
	if got := e.call(t, "torch.argmax", in)[0].Int; got != 1 {
		t.Fatalf("argmax = %d", got)
	}
	if got := e.call(t, "torch.mean", in)[0].Float; math.Abs(got-13.0/3) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if got := e.call(t, "torch.sum", in)[0].Float; got != 13 {
		t.Fatalf("sum = %v", got)
	}
}

func TestReshapeFlatten(t *testing.T) {
	e := newEnv(t)
	in := e.tensorVal(t, 1, 2, 3, 4, 5, 6)
	rs := e.call(t, "torch.reshape", in, framework.Int64(2), framework.Int64(3))[0]
	rt, _ := e.ctx.Tensor(rs)
	if sh := rt.Shape(); sh[0] != 2 || sh[1] != 3 {
		t.Fatalf("reshape shape = %v", sh)
	}
	if _, err := e.reg.MustGet("torch.reshape").Exec(e.ctx, []framework.Value{in, framework.Int64(4), framework.Int64(4)}); err == nil {
		t.Fatal("bad reshape should fail")
	}
	fl := e.call(t, "torch.flatten", rs)[0]
	ft, _ := e.ctx.Tensor(fl)
	if len(ft.Shape()) != 1 || ft.Len() != 6 {
		t.Fatal("flatten should be 1-D")
	}
}

func TestSGDStepUpdatesWeightsInPlace(t *testing.T) {
	e := newEnv(t)
	w := e.tensorVal(t, 1, 1)
	g := e.tensorVal(t, 10, -10)
	e.call(t, "torch.optim.SGD.step", w, g, framework.Float64(0.1))
	got := e.valuesOf(t, w)
	if math.Abs(got[0]-0) > 1e-9 || math.Abs(got[1]-2) > 1e-9 {
		t.Fatalf("sgd = %v", got)
	}
}

func TestSaveAndSummaryWriter(t *testing.T) {
	e := newEnv(t)
	w := e.tensorVal(t, 1.5, 2.5)
	e.call(t, "torch.save", w, framework.Str("/w.pt"))
	raw, err := e.k.FS.ReadFile("/w.pt")
	if err != nil {
		t.Fatal(err)
	}
	layers, err := simtorch.DecodeModel(raw)
	if err != nil || layers[0][1] != 2.5 {
		t.Fatalf("saved model = %v, %v", layers, err)
	}
	e.call(t, "torch.utils.tensorboard.SummaryWriter", framework.Str("/runs"), framework.Float64(0.25))
	if !e.k.FS.Exists("/runs/events.log") {
		t.Fatal("SummaryWriter should append to the event log")
	}
}

func TestCombinations(t *testing.T) {
	e := newEnv(t)
	out := e.call(t, "torch.combinations", e.tensorVal(t, 1, 2, 3))[0]
	ct, _ := e.ctx.Tensor(out)
	if sh := ct.Shape(); sh[0] != 3 || sh[1] != 2 {
		t.Fatalf("combinations shape = %v", sh)
	}
}

func TestRegistryTypeSpread(t *testing.T) {
	counts := map[framework.APIType]int{}
	for _, a := range simtorch.Registry().All() {
		counts[a.TrueType]++
	}
	if counts[framework.TypeLoading] < 3 || counts[framework.TypeProcessing] < 15 || counts[framework.TypeStoring] < 2 {
		t.Fatalf("type spread = %v", counts)
	}
	// Per Table 4, PyTorch has no visualizing APIs.
	if counts[framework.TypeVisualizing] != 0 {
		t.Fatal("simtorch should have no visualizing APIs")
	}
}
