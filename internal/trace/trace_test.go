package trace_test

import (
	"testing"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/trace"
)

func TestRecorderDedup(t *testing.T) {
	r := trace.NewRecorder()
	op := framework.WriteOp(framework.StorageMem, framework.StorageFile)
	r.RecordOp("a", op)
	r.RecordOp("a", op)
	r.RecordOp("a", framework.ReadOp(framework.StorageGUI))
	if got := r.Ops("a"); len(got) != 2 {
		t.Fatalf("ops = %v", got)
	}
	if !r.Has("a") || r.Has("b") {
		t.Fatal("Has wrong")
	}
}

func TestRunSuiteCoversMostAPIs(t *testing.T) {
	k := kernel.New()
	reg := all.Registry()
	r := trace.NewRunner(reg)
	trace.RunSuite(k, r)

	total, covered := 0, 0
	for _, api := range reg.All() {
		total++
		if r.Recorder.Has(api.Name) {
			covered++
		} else {
			t.Logf("uncovered: %s (%v)", api.Name, r.Errors[api.Name])
		}
	}
	if covered*100 < total*75 {
		t.Fatalf("suite covered %d/%d APIs, want >= 75%%", covered, total)
	}
}

func TestSuiteObservesCorrectOps(t *testing.T) {
	k := kernel.New()
	reg := all.Registry()
	r := trace.NewRunner(reg)
	trace.RunSuite(k, r)

	// imread must show W(MEM, R(FILE)).
	found := false
	for _, op := range r.Recorder.Ops("cv.imread") {
		if op.DstValid && op.Dst == framework.StorageMem && op.Src == framework.StorageFile {
			found = true
		}
	}
	if !found {
		t.Fatalf("imread ops = %v", r.Recorder.Ops("cv.imread"))
	}
	// imshow must show W(GUI, R(MEM)).
	found = false
	for _, op := range r.Recorder.Ops("cv.imshow") {
		if op.DstValid && op.Dst == framework.StorageGUI && op.Src == framework.StorageMem {
			found = true
		}
	}
	if !found {
		t.Fatalf("imshow ops = %v", r.Recorder.Ops("cv.imshow"))
	}
	// GaussianBlur must show only memory ops.
	for _, op := range r.Recorder.Ops("cv.GaussianBlur") {
		if op.Src != framework.StorageMem || !op.DstValid || op.Dst != framework.StorageMem {
			t.Fatalf("GaussianBlur has non-memory op %v", op)
		}
	}
}

func TestCoverageRow(t *testing.T) {
	k := kernel.New()
	reg := all.Registry()
	r := trace.NewRunner(reg)
	trace.RunSuite(k, r)
	cov := r.CoverageFor(simcv.Name)
	if cov.APITotal < 85 || cov.APICovered < 70 {
		t.Fatalf("coverage = %+v", cov)
	}
	if cov.APIPct() < 75 || cov.APIPct() > 100 {
		t.Fatalf("api pct = %v", cov.APIPct())
	}
	if cov.CodeCoverage < 60 || cov.CodeCoverage > 100 {
		t.Fatalf("code coverage = %v", cov.CodeCoverage)
	}
}

func TestCoverageEmptyFramework(t *testing.T) {
	r := trace.NewRunner(framework.NewRegistry())
	cov := r.CoverageFor("nope")
	if cov.APIPct() != 0 || cov.CodeCoverage != 0 {
		t.Fatalf("empty coverage = %+v", cov)
	}
}

func TestRunAPISyscallObservation(t *testing.T) {
	k := kernel.New()
	trace.SetupSuiteInputs(k)
	reg := all.Registry()
	r := trace.NewRunner(reg)
	api := reg.MustGet("cv.imread")
	p := k.Spawn("probe")
	ctx := framework.NewCtx(k, p)
	ctx.Tracer = r.Recorder
	if _, err := api.Exec(ctx, []framework.Value{framework.Str("/suite/img.img")}); err != nil {
		t.Fatal(err)
	}
	// RunAPI gives each API a fresh process, so the process's syscall
	// counts are exactly what the API issued.
	obs := p.SyscallCounts()
	for _, s := range []kernel.Sysno{kernel.SysOpenat, kernel.SysRead} {
		if obs[s] == 0 {
			t.Errorf("missing observed syscall %s in %v", s, obs)
		}
	}
}
