package analysis_test

import (
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/trace"
)

// hybrid runs the full dynamic suite + analyzer once per test binary.
func hybrid(t *testing.T) (*analysis.Analyzer, *analysis.Categorization) {
	t.Helper()
	k := kernel.New()
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(k, runner)
	a := analysis.New(reg, runner.Recorder)
	return a, a.Categorize()
}

func TestStaticOnlyCategorization(t *testing.T) {
	reg := all.Registry()
	a := analysis.New(reg, nil)
	c := a.Categorize()
	if c.TypeOf("cv.imread") != framework.TypeLoading {
		t.Fatalf("imread = %v", c.TypeOf("cv.imread"))
	}
	if c.TypeOf("cv.GaussianBlur") != framework.TypeProcessing {
		t.Fatalf("blur = %v", c.TypeOf("cv.GaussianBlur"))
	}
	if c.TypeOf("cv.imshow") != framework.TypeVisualizing {
		t.Fatalf("imshow = %v", c.TypeOf("cv.imshow"))
	}
	if c.TypeOf("cv.imwrite") != framework.TypeStoring {
		t.Fatalf("imwrite = %v", c.TypeOf("cv.imwrite"))
	}
}

func TestHybridAccuracy(t *testing.T) {
	a, c := hybrid(t)
	acc, wrong := a.Accuracy(c)
	if acc < 0.97 {
		t.Fatalf("hybrid accuracy = %.3f, mismatches: %v", acc, wrong)
	}
}

func TestMemoryCopyViaFileReduction(t *testing.T) {
	a, c := hybrid(t)
	_ = a
	// get_file downloads from the network and stages through a file; the
	// reduction must fire and the API must classify as data loading
	// (§4.2.1's worked example).
	found := false
	for _, name := range c.Reduced {
		if name == "tf.keras.utils.get_file" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reduction did not fire for get_file: %v", c.Reduced)
	}
	if got := c.TypeOf("tf.keras.utils.get_file"); got != framework.TypeLoading {
		t.Fatalf("get_file = %v, want DL", got)
	}
	if got := c.TypeOf("torch.hub.load"); got != framework.TypeLoading {
		t.Fatalf("hub.load = %v, want DL", got)
	}
}

func TestDynamicOnlyAPICaughtByTrace(t *testing.T) {
	// An API whose static ops are hidden (indirect calls) categorizes as
	// processing statically but correctly once traces arrive.
	reg := framework.NewRegistry()
	reg.Register(&framework.API{
		Name: "x.hiddenLoad", Framework: "x", TrueType: framework.TypeLoading,
		DynamicOnly: true,
		StaticOps:   []framework.Op{framework.WriteOp(framework.StorageMem, framework.StorageFile)},
		Impl: func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if _, err := ctx.FileRead("/f"); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	staticOnly := analysis.New(reg, nil).Categorize()
	if staticOnly.TypeOf("x.hiddenLoad") != framework.TypeProcessing {
		t.Fatalf("static-only should misclassify, got %v", staticOnly.TypeOf("x.hiddenLoad"))
	}

	k := kernel.New()
	k.FS.WriteFile("/f", []byte("data"))
	runner := trace.NewRunner(reg)
	if _, err := runner.RunAPI(k, reg.MustGet("x.hiddenLoad"), func(ctx *framework.Ctx) ([]framework.Value, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	a := analysis.New(reg, runner.Recorder)
	c := a.Categorize()
	if c.TypeOf("x.hiddenLoad") != framework.TypeLoading {
		t.Fatalf("hybrid should recover the load type, got %v", c.TypeOf("x.hiddenLoad"))
	}
}

func TestDetectNeutral(t *testing.T) {
	a, c := hybrid(t)
	// cvtColor used next to loading in one app and next to visualizing in
	// another → neutral.
	seqs := [][]string{
		{"cv.imread", "cv.cvtColor", "cv.GaussianBlur"},
		{"cv.GaussianBlur", "cv.cvtColor", "cv.imshow"},
	}
	a.DetectNeutral(c, seqs)
	if !c.Neutral["cv.cvtColor"] {
		t.Fatal("cvtColor should be detected neutral")
	}
	// GaussianBlur also borders two types here but is only ever adjacent
	// to processing-type neighbours in the sequences' classification...
	// verify imread (a loader) is never neutral.
	if c.Neutral["cv.imread"] {
		t.Fatal("imread must not be neutral")
	}
}

func TestDetectNeutralRequiresTwoContexts(t *testing.T) {
	a, c := hybrid(t)
	seqs := [][]string{{"cv.imread", "cv.cvtColor"}} // only one neighbor type
	a.DetectNeutral(c, seqs)
	if c.Neutral["cv.cvtColor"] {
		t.Fatal("one context should not make an API neutral")
	}
}

func TestStatefulReport(t *testing.T) {
	a, _ := hybrid(t)
	rep := a.Stateful()
	has := func(list []string, name string) bool {
		for _, n := range list {
			if n == name {
				return true
			}
		}
		return false
	}
	if !has(rep.Stateful, "cv.VideoCapture.read") {
		t.Fatal("VideoCapture.read should be stateful")
	}
	if !has(rep.Shared, "tf.estimator.DNNClassifier.train") {
		t.Fatal("estimator train should be shared-state")
	}
	if has(rep.Shared, "cv.VideoCapture.read") {
		t.Fatal("VideoCapture.read state is not shared")
	}
}

func TestDeriveSyscallPolicy(t *testing.T) {
	a, c := hybrid(t)
	policies := a.DeriveSyscallPolicy(c, []string{
		"cv.imread", "cv.VideoCapture.read", "cv.GaussianBlur", "cv.imshow", "cv.imwrite",
	})
	dl := policies[framework.TypeLoading]
	hasCall := func(list []kernel.Sysno, s kernel.Sysno) bool {
		for _, c := range list {
			if c == s {
				return true
			}
		}
		return false
	}
	// Union of imread + VideoCapture.read needs (Fig. 12-(b) shape).
	for _, want := range []kernel.Sysno{kernel.SysOpenat, kernel.SysRead, kernel.SysIoctl, kernel.SysSelect} {
		if !hasCall(dl.Allowed, want) {
			t.Errorf("loading policy missing %s: %v", want, dl.Allowed)
		}
	}
	// Loading must NOT allow sendto (exfiltration path, §5.3).
	if hasCall(dl.Allowed, kernel.SysSendto) {
		t.Error("loading policy must not allow sendto")
	}
	dp := policies[framework.TypeProcessing]
	if hasCall(dp.Allowed, kernel.SysOpenat) {
		t.Errorf("processing policy should not need openat for GaussianBlur: %v", dp.Allowed)
	}
	// ioctl fd-scoping flows through.
	if labels := dl.FDLabels[kernel.SysIoctl]; len(labels) == 0 || labels[0] != "/dev/camera0" {
		t.Errorf("ioctl labels = %v", dl.FDLabels)
	}
	// imshow's connect is init-only.
	viz := policies[framework.TypeVisualizing]
	if !hasCall(viz.InitOnly, kernel.SysConnect) {
		t.Errorf("visualizing init-only should include connect: %v", viz.InitOnly)
	}
	if hasCall(viz.Allowed, kernel.SysConnect) {
		t.Error("connect must not be in the steady-state allowlist")
	}
}

func TestPolicyApplyEnforces(t *testing.T) {
	a, c := hybrid(t)
	policies := a.DeriveSyscallPolicy(c, []string{"cv.GaussianBlur"})
	k := kernel.New()
	p := k.Spawn("dp-agent")
	if err := policies[framework.TypeProcessing].Apply(p.Filter()); err != nil {
		t.Fatal(err)
	}
	if err := k.Syscall(p, kernel.SysBrk, ""); err != nil {
		t.Fatalf("brk should be allowed: %v", err)
	}
	if err := k.Syscall(p, kernel.SysSendto, ""); err == nil {
		t.Fatal("sendto should be denied")
	}
	if p.Alive() {
		t.Fatal("violator should be killed")
	}
}

func TestNeutralAPISyscallsInAllAgents(t *testing.T) {
	a, c := hybrid(t)
	c.Neutral["cv.cvtColor"] = true
	policies := a.DeriveSyscallPolicy(c, []string{"cv.cvtColor", "cv.imread"})
	for _, ty := range framework.ConcreteTypes() {
		found := false
		for _, s := range policies[ty].Allowed {
			if s == kernel.SysBrk {
				found = true
			}
		}
		if !found {
			t.Errorf("agent %s should allow neutral API's brk", ty)
		}
	}
}

func TestUsageByType(t *testing.T) {
	_, c := hybrid(t)
	calls := []string{
		"cv.imread", "cv.imread", "cv.GaussianBlur", "cv.erode",
		"cv.GaussianBlur", "cv.imshow", "cv.imwrite",
	}
	usage := analysis.UsageByType(c, calls)
	if u := usage[framework.TypeLoading]; u.Unique != 1 || u.Total != 2 {
		t.Fatalf("loading usage = %+v", u)
	}
	if u := usage[framework.TypeProcessing]; u.Unique != 2 || u.Total != 3 {
		t.Fatalf("processing usage = %+v", u)
	}
	if u := usage[framework.TypeVisualizing]; u.Unique != 1 || u.Total != 1 {
		t.Fatalf("visualizing usage = %+v", u)
	}
	if u := usage[framework.TypeStoring]; u.Unique != 1 || u.Total != 1 {
		t.Fatalf("storing usage = %+v", u)
	}
}

func TestAccuracyEmptyRegistry(t *testing.T) {
	a := analysis.New(framework.NewRegistry(), nil)
	acc, wrong := a.Accuracy(a.Categorize())
	if acc != 1 || wrong != nil {
		t.Fatal("empty registry should be trivially accurate")
	}
}
