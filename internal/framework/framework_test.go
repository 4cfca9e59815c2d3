package framework

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

func TestAPITypeStrings(t *testing.T) {
	for ty, want := range map[APIType]string{
		TypeLoading: "DL", TypeProcessing: "DP", TypeVisualizing: "V",
		TypeStoring: "ST", TypeNeutral: "N", TypeUnknown: "?",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if TypeLoading.Long() != "Data Loading" || TypeStoring.Long() != "Storing" {
		t.Error("Long names wrong")
	}
	if len(ConcreteTypes()) != 4 {
		t.Error("four concrete types expected")
	}
}

func TestOpString(t *testing.T) {
	if got := WriteOp(StorageMem, StorageFile).String(); got != "W(MEM, R(FILE))" {
		t.Fatalf("op = %q", got)
	}
	if got := ReadOp(StorageGUI).String(); got != "R(GUI)" {
		t.Fatalf("read op = %q", got)
	}
}

func TestValueConstructors(t *testing.T) {
	cases := []struct {
		v    Value
		want ValueKind
	}{
		{Nil(), ValNil}, {Int64(3), ValInt}, {Float64(1.5), ValFloat},
		{Str("x"), ValStr}, {Bool(true), ValBool}, {Obj(9), ValObj},
	}
	for _, c := range cases {
		if c.v.Kind != c.want {
			t.Errorf("kind = %v, want %v", c.v.Kind, c.want)
		}
		if c.v.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestCallEncodeDecodeRoundTrip(t *testing.T) {
	c := Call{
		API:      "cv.imread",
		Args:     []Value{Str("/in.png"), Int64(3), Obj(7)},
		Payloads: [][]byte{nil, nil, {1, 2, 3}},
	}
	b, err := EncodeCall(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCall(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.API != c.API || len(got.Args) != 3 || got.Args[0].Str != "/in.png" ||
		got.Args[2].Obj != 7 || !bytes.Equal(got.Payloads[2], []byte{1, 2, 3}) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestReplyEncodeDecodeRoundTrip(t *testing.T) {
	r := Reply{
		Results:         []Value{Bool(true), Obj(5)},
		Payloads:        [][]byte{nil, {9}},
		UpdatedArgs:     []Value{Obj(2)},
		UpdatedPayloads: [][]byte{{4, 4}},
	}
	b, err := EncodeReply(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReply(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 || !got.Results[0].Bool || got.Results[1].Obj != 5 ||
		!bytes.Equal(got.UpdatedPayloads[0], []byte{4, 4}) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestTriggerParse(t *testing.T) {
	data := Trigger("CVE-2017-12597", []byte("payload"))
	cve, payload, ok := ParseTrigger(data)
	if !ok || cve != "CVE-2017-12597" || string(payload) != "payload" {
		t.Fatalf("parse = %q %q %v", cve, payload, ok)
	}
	if _, _, ok := ParseTrigger([]byte("IMG1normal")); ok {
		t.Fatal("benign data should not parse as trigger")
	}
	if _, _, ok := ParseTrigger([]byte("!!CVE:unterminated")); ok {
		t.Fatal("unterminated trigger should not parse")
	}
}

func TestTriggerRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		cve, p, ok := ParseTrigger(Trigger("CVE-X", payload))
		return ok && cve == "CVE-X" && bytes.Equal(p, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Register(&API{Name: "a.one", Framework: "a", TrueType: TypeLoading})
	r.Register(&API{Name: "a.two", Framework: "a", TrueType: TypeProcessing})
	r.Register(&API{Name: "b.one", Framework: "b", TrueType: TypeStoring})
	if r.Len() != 3 {
		t.Fatal("Len wrong")
	}
	if _, ok := r.Get("a.one"); !ok {
		t.Fatal("Get failed")
	}
	if got := r.ByFramework("a"); len(got) != 2 || got[0].Name != "a.one" {
		t.Fatalf("ByFramework = %v", got)
	}
	if fw := r.Frameworks(); len(fw) != 2 || fw[0] != "a" || fw[1] != "b" {
		t.Fatalf("Frameworks = %v", fw)
	}
	all := r.All()
	if len(all) != 3 || all[0].Name != "a.one" || all[2].Name != "b.one" {
		t.Fatalf("All not sorted: %v", all)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register(&API{Name: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	r.Register(&API{Name: "x"})
}

func TestRegistryMustGetPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet of missing API should panic")
		}
	}()
	r.MustGet("missing")
}

func TestRegistryDefaultsIntensity(t *testing.T) {
	r := NewRegistry()
	r.Register(&API{Name: "x"})
	if a, _ := r.Get("x"); a.Intensity != 1 {
		t.Fatalf("intensity = %v, want 1 default", a.Intensity)
	}
}

func TestAPIHasCVE(t *testing.T) {
	a := &API{CVEs: []string{"CVE-1", "CVE-2"}}
	if !a.HasCVE("CVE-1") || a.HasCVE("CVE-3") || !a.Vulnerable() {
		t.Fatal("HasCVE wrong")
	}
	if (&API{}).Vulnerable() {
		t.Fatal("no-CVE API should not be vulnerable")
	}
}

func TestExecRequiresImplAndLiveProcess(t *testing.T) {
	k := kernel.New()
	p := k.Spawn("x")
	ctx := NewCtx(k, p)
	a := &API{Name: "no.impl"}
	if _, err := a.Exec(ctx, nil); err == nil {
		t.Fatal("Exec without impl should fail")
	}
	a.Impl = func(ctx *Ctx, args []Value) ([]Value, error) { return nil, nil }
	if _, err := a.Exec(ctx, nil); err != nil {
		t.Fatal(err)
	}
	k.Crash(p, "dead")
	if _, err := a.Exec(ctx, nil); !errors.Is(err, kernel.ErrProcessDead) {
		t.Fatalf("Exec on dead process = %v", err)
	}
}

func TestExecSetsAPINameForTracing(t *testing.T) {
	k := kernel.New()
	ctx := NewCtx(k, k.Spawn("x"))
	var seen string
	a := &API{Name: "observed.api", Impl: func(c *Ctx, args []Value) ([]Value, error) {
		seen = c.api
		return nil, nil
	}}
	if _, err := a.Exec(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if seen != "observed.api" {
		t.Fatalf("API name during exec = %q", seen)
	}
	if ctx.api != "" {
		t.Fatal("API name should reset after exec")
	}
}

type recordingTracer struct {
	ops []struct {
		api string
		op  Op
	}
}

func (r *recordingTracer) RecordOp(api string, op Op) {
	r.ops = append(r.ops, struct {
		api string
		op  Op
	}{api, op})
}

func TestCtxIOEmitsOps(t *testing.T) {
	k := kernel.New()
	k.FS.WriteFile("/f", []byte("data"))
	ctx := NewCtx(k, k.Spawn("x"))
	tr := &recordingTracer{}
	ctx.Tracer = tr
	a := &API{Name: "io.api", Impl: func(c *Ctx, args []Value) ([]Value, error) {
		if _, err := c.FileRead("/f"); err != nil {
			return nil, err
		}
		if err := c.FileWrite("/out", []byte("x")); err != nil {
			return nil, err
		}
		c.EmitMemOp()
		return nil, nil
	}}
	if _, err := a.Exec(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if len(tr.ops) != 3 {
		t.Fatalf("recorded %d ops, want 3", len(tr.ops))
	}
	if tr.ops[0].op.String() != "W(MEM, R(FILE))" || tr.ops[0].api != "io.api" {
		t.Fatalf("op[0] = %v by %s", tr.ops[0].op, tr.ops[0].api)
	}
	if tr.ops[1].op.String() != "W(FILE, R(MEM))" {
		t.Fatalf("op[1] = %v", tr.ops[1].op)
	}
}

func TestMaybeExploitDefaultCrashes(t *testing.T) {
	k := kernel.New()
	p := k.Spawn("agent")
	ctx := NewCtx(k, p)
	api := &API{Name: "vuln.api", CVEs: []string{"CVE-9"}}
	fired, err := ctx.MaybeExploit(api, Trigger("CVE-9", nil))
	if !fired || !errors.Is(err, ErrExploited) {
		t.Fatalf("exploit = %v, %v", fired, err)
	}
	if p.Alive() {
		t.Fatal("default exploit handler should crash the process")
	}
}

func TestMaybeExploitWrongCVEInert(t *testing.T) {
	k := kernel.New()
	p := k.Spawn("agent")
	ctx := NewCtx(k, p)
	api := &API{Name: "other.api", CVEs: []string{"CVE-1"}}
	fired, err := ctx.MaybeExploit(api, Trigger("CVE-2", nil))
	if fired || err != nil {
		t.Fatalf("crafted input for absent CVE should be inert: %v %v", fired, err)
	}
	if !p.Alive() {
		t.Fatal("process should survive inert input")
	}
}

func TestMaybeExploitCustomHandler(t *testing.T) {
	k := kernel.New()
	ctx := NewCtx(k, k.Spawn("agent"))
	var gotCVE string
	var gotPayload []byte
	ctx.OnExploit = func(c *Ctx, cve string, payload []byte) error {
		gotCVE, gotPayload = cve, payload
		return nil
	}
	api := &API{Name: "vuln", CVEs: []string{"CVE-7"}}
	fired, err := ctx.MaybeExploit(api, Trigger("CVE-7", []byte("pp")))
	if !fired || err != nil {
		t.Fatal("custom handler should fire without error")
	}
	if gotCVE != "CVE-7" || string(gotPayload) != "pp" {
		t.Fatalf("handler saw %q %q", gotCVE, gotPayload)
	}
}

func TestCtxObjectHelpers(t *testing.T) {
	k := kernel.New()
	ctx := NewCtx(k, k.Spawn("x"))
	mid, _, err := ctx.NewMat(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tid, _, err := ctx.NewTensor(3)
	if err != nil {
		t.Fatal(err)
	}
	bid, _, err := ctx.NewBlob([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Mat(Obj(mid)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Tensor(Obj(tid)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Blob(Obj(bid)); err != nil {
		t.Fatal(err)
	}
	// Type confusion errors.
	if _, err := ctx.Mat(Obj(tid)); err == nil {
		t.Fatal("Mat of tensor should fail")
	}
	if _, err := ctx.Tensor(Obj(bid)); err == nil {
		t.Fatal("Tensor of blob should fail")
	}
	if _, err := ctx.Blob(Obj(mid)); err == nil {
		t.Fatal("Blob of mat should fail")
	}
	if _, err := ctx.Obj(Int64(3)); err == nil {
		t.Fatal("Obj of non-object should fail")
	}
	if _, err := ctx.Obj(Obj(999)); err == nil {
		t.Fatal("dangling id should fail")
	}
}

func TestCtxDeviceAndNetHelpers(t *testing.T) {
	k := kernel.New()
	cam := kernel.NewCamera("/dev/cam")
	cam.Push([]byte{1, 2})
	k.AddCamera(cam)
	k.Net.QueueInbound("srv", []byte("dl"))
	ctx := NewCtx(k, k.Spawn("x"))
	tr := &recordingTracer{}
	ctx.Tracer = tr
	a := &API{Name: "dev.api", Impl: func(c *Ctx, args []Value) ([]Value, error) {
		if frame, ok, err := c.CameraRead("/dev/cam"); err != nil || !ok || len(frame) != 2 {
			t.Fatalf("CameraRead = %v %v %v", frame, ok, err)
		}
		if _, ok, err := c.CameraRead("/dev/cam"); err != nil || ok {
			t.Fatalf("drained camera: ok=%v err=%v", ok, err)
		}
		if data, ok, err := c.NetDownload("srv"); err != nil || !ok || string(data) != "dl" {
			t.Fatalf("NetDownload = %q %v %v", data, ok, err)
		}
		if err := c.FileAppend("/log", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := c.GUIShow("w", 10); err != nil {
			t.Fatal(err)
		}
		if err := c.GUIOp("move", "w"); err != nil {
			t.Fatal(err)
		}
		if names, err := c.GUIReadState(); err != nil || len(names) != 1 {
			t.Fatalf("GUIReadState = %v %v", names, err)
		}
		c.Charge(100, 2)
		return nil, nil
	}}
	if _, err := a.Exec(ctx, nil); err != nil {
		t.Fatal(err)
	}
	// Ops recorded: DEV read, MEM<-DEV download, FILE append, GUI show,
	// R(GUI), MEM<-GUI.
	if len(tr.ops) < 6 {
		t.Fatalf("recorded %d ops", len(tr.ops))
	}
	if k.Clock.Now() == 0 {
		t.Fatal("Charge should advance the clock")
	}
}

func TestRegistryMerge(t *testing.T) {
	a := NewRegistry()
	a.Register(&API{Name: "a.one"})
	b := NewRegistry()
	b.Register(&API{Name: "b.one"})
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("merged len = %d", a.Len())
	}
}

func TestValueRefString(t *testing.T) {
	v := RefVal(object.Ref{PID: 2, ID: 5, Size: 64})
	if v.Kind != ValRef || v.String() == "" {
		t.Fatalf("ref value = %+v", v)
	}
	unknown := Value{Kind: ValueKind(99)}
	if unknown.String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestTypeLongNames(t *testing.T) {
	for ty, want := range map[APIType]string{
		TypeLoading: "Data Loading", TypeProcessing: "Data Processing",
		TypeVisualizing: "Visualizing", TypeStoring: "Storing",
		TypeNeutral: "Type-Neutral", TypeUnknown: "Unknown",
	} {
		if ty.Long() != want {
			t.Errorf("%v.Long() = %q", ty, ty.Long())
		}
	}
}

func TestNewMatFromBytesHelper(t *testing.T) {
	k := kernel.New()
	ctx := NewCtx(k, k.Spawn("x"))
	id, m, err := ctx.NewMatFromBytes(2, 2, 1, []byte{1, 2, 3, 4})
	if err != nil || m.Size() != 4 {
		t.Fatalf("helper = %v %v", m, err)
	}
	if _, ok := ctx.Table.Get(id); !ok {
		t.Fatal("mat not registered")
	}
	if _, _, err := ctx.NewMatFromBytes(2, 2, 1, []byte{1}); err == nil {
		t.Fatal("short data should fail")
	}
}
