package baseline_test

import (
	"testing"

	"freepart.dev/freepart/internal/analysis"

	"freepart.dev/freepart/internal/baseline"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/workload"
)

// build creates a system of the given kind over the OMR API set.
func build(t *testing.T, kind baseline.Kind) (*kernel.Kernel, *baseline.System) {
	t.Helper()
	k := kernel.New()
	s, err := baseline.New(kind, k, all.Registry(), baseline.OMRAPIs())
	if err != nil {
		t.Fatal(err)
	}
	return k, s
}

func TestProcessCounts(t *testing.T) {
	// Table 1's "# of Processes" column shape: per-API has the most,
	// memory-based the fewest.
	counts := map[baseline.Kind]int{}
	for _, kind := range []baseline.Kind{
		baseline.CodeAPI, baseline.CodeAPIData, baseline.LibraryEntire,
		baseline.LibraryPerAPI, baseline.MemoryBased,
	} {
		_, s := build(t, kind)
		counts[kind] = len(s.Processes())
	}
	if counts[baseline.CodeAPI] != 3 {
		t.Errorf("CodeAPI processes = %d, want 3", counts[baseline.CodeAPI])
	}
	if counts[baseline.CodeAPIData] != 5 {
		t.Errorf("CodeAPIData processes = %d, want 5", counts[baseline.CodeAPIData])
	}
	if counts[baseline.LibraryEntire] != 2 {
		t.Errorf("LibraryEntire processes = %d, want 2", counts[baseline.LibraryEntire])
	}
	if counts[baseline.LibraryPerAPI] != 1+len(baseline.OMRAPIs()) {
		t.Errorf("LibraryPerAPI processes = %d", counts[baseline.LibraryPerAPI])
	}
	if counts[baseline.MemoryBased] != 1 {
		t.Errorf("MemoryBased processes = %d, want 1", counts[baseline.MemoryBased])
	}
}

func TestPipelineRunsOnEveryTechnique(t *testing.T) {
	for _, kind := range []baseline.Kind{
		baseline.CodeAPI, baseline.CodeAPIData, baseline.LibraryEntire,
		baseline.LibraryPerAPI, baseline.MemoryBased,
	} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			k, s := build(t, kind)
			gen := workload.New(7)
			k.FS.WriteFile("/in.img", gen.EncodedImage(8, 8, 1))
			imgs, _, err := s.Call("cv.imread", framework.Str("/in.img"))
			if err != nil {
				t.Fatal(err)
			}
			blur, _, err := s.Call("cv.GaussianBlur", imgs[0].Value())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Call("cv.imwrite", framework.Str("/out.img"), blur[0].Value()); err != nil {
				t.Fatal(err)
			}
			if !k.FS.Exists("/out.img") {
				t.Fatal("pipeline produced no output")
			}
			out, err := s.Fetch(blur[0])
			if err != nil || len(out) != 64 {
				t.Fatalf("fetch = %d bytes, %v", len(out), err)
			}
		})
	}
}

func TestBaselineResultsMatchAcrossTechniques(t *testing.T) {
	// The same input produces identical blurred bytes on every technique
	// (isolation must not change semantics).
	var want []byte
	for _, kind := range []baseline.Kind{
		baseline.MemoryBased, baseline.CodeAPI, baseline.LibraryEntire, baseline.LibraryPerAPI,
	} {
		k, s := build(t, kind)
		gen := workload.New(7)
		k.FS.WriteFile("/in.img", gen.EncodedImage(8, 8, 1))
		imgs, _, _ := s.Call("cv.imread", framework.Str("/in.img"))
		blur, _, err := s.Call("cv.GaussianBlur", imgs[0].Value())
		if err != nil {
			t.Fatal(err)
		}
		got, _ := s.Fetch(blur[0])
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("%s produced different output", kind)
		}
	}
}

func TestSharedMemoryMovesNoObjectBytes(t *testing.T) {
	// Library-entire (Fig. 2-(c)): IPC per call, zero object bytes.
	k, s := build(t, baseline.LibraryEntire)
	gen := workload.New(7)
	k.FS.WriteFile("/in.img", gen.EncodedImage(16, 16, 1))
	imgs, _, _ := s.Call("cv.imread", framework.Str("/in.img"))
	for i := 0; i < 4; i++ {
		if _, _, err := s.Call("cv.GaussianBlur", imgs[0].Value()); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics.Snapshot()
	if snap.IPCCalls < 5 {
		t.Fatalf("IPC calls = %d, want one per API call", snap.IPCCalls)
	}
	if snap.BytesMoved != 0 {
		t.Fatalf("shared memory should move 0 object bytes, got %d", snap.BytesMoved)
	}
}

func TestPerAPIMovesAllBytes(t *testing.T) {
	k, s := build(t, baseline.LibraryPerAPI)
	gen := workload.New(7)
	k.FS.WriteFile("/in.img", gen.EncodedImage(16, 16, 1))
	imgs, _, _ := s.Call("cv.imread", framework.Str("/in.img"))
	if _, _, err := s.Call("cv.GaussianBlur", imgs[0].Value()); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics.Snapshot()
	if snap.BytesMoved < 2*256 {
		t.Fatalf("per-API isolation should ship payloads, moved %d bytes", snap.BytesMoved)
	}
}

func TestSecurityVerdictsMatchTable1(t *testing.T) {
	// The M/C/D outcomes per technique, derived by running the attacks.
	type want struct{ m, c, d bool }
	wants := map[baseline.Kind]want{
		// Template co-resident with imread: M fails; API isolation keeps
		// other code and the host safe: C, D prevented.
		baseline.CodeAPI: {m: false, c: true, d: true},
		// Data isolated too: all three prevented (at high cost).
		baseline.CodeAPIData: {m: true, c: true, d: true},
		// All APIs share one process: code rewrite of another API works;
		// M and D prevented (data in host, crash confined to library).
		baseline.LibraryEntire: {m: true, c: false, d: true},
		// Everything isolated: all prevented.
		baseline.LibraryPerAPI: {m: true, c: true, d: true},
		// Single process: read-only template resists corruption, but the
		// crash takes the app down and code rewrite works.
		baseline.MemoryBased: {m: true, c: false, d: false},
	}
	for kind, w := range wants {
		v, err := baseline.EvaluateSecurity(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if v.MPrevented != w.m || v.CPrevented != w.c || v.DPrevented != w.d {
			t.Errorf("%s: M=%v C=%v D=%v, want M=%v C=%v D=%v",
				kind, v.MPrevented, v.CPrevented, v.DPrevented, w.m, w.c, w.d)
		}
	}
}

func TestFreePartSecurityVerdict(t *testing.T) {
	v, err := baseline.EvaluateFreePartSecurity()
	if err != nil {
		t.Fatal(err)
	}
	if !v.MPrevented || !v.CPrevented || !v.DPrevented {
		t.Fatalf("FreePart must prevent all three: %+v", v)
	}
	if v.Processes != 5 {
		t.Fatalf("FreePart processes = %d, want 5", v.Processes)
	}
	if v.IsolatedCVEAPIs < 2 {
		t.Fatalf("isolated CVE APIs = %d, want >= 2 (imread, imshow)", v.IsolatedCVEAPIs)
	}
}

func TestTable9Shape(t *testing.T) {
	// The relative ordering of Table 9: per-API isolation moves the most
	// bytes and takes the longest; entire-library does many IPCs but moves
	// nothing; code-based API&data does many more IPCs than code-based API;
	// FreePart sits near the unprotected time.
	sheets, q, o := 2, 8, 4
	perf := map[string]baseline.Perf{}
	for _, kind := range []baseline.Kind{
		baseline.CodeAPI, baseline.CodeAPIData, baseline.LibraryEntire,
		baseline.LibraryPerAPI, baseline.MemoryBased,
	} {
		p, err := baseline.MeasureBaseline(kind, sheets, q, o, baseline.DefaultCell)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		perf[kind.String()] = p
	}
	fp, err := baseline.MeasureFreePart(true, sheets, q, o, baseline.DefaultCell)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline.MeasureUnprotected(sheets, q, o, baseline.DefaultCell)
	if err != nil {
		t.Fatal(err)
	}

	if perf[baseline.CodeAPIData.String()].IPCs <= perf[baseline.CodeAPI.String()].IPCs {
		t.Error("API&Data should do more IPCs than API-only (hot-loop data reads)")
	}
	if perf[baseline.LibraryEntire.String()].Bytes != 0 {
		t.Error("entire-library should move no object bytes")
	}
	if perf[baseline.LibraryPerAPI.String()].Bytes <= perf[baseline.CodeAPI.String()].Bytes {
		t.Error("per-API should move the most bytes")
	}
	if perf[baseline.LibraryPerAPI.String()].Time <= perf[baseline.LibraryEntire.String()].Time {
		t.Error("per-API should be slower than entire-library")
	}
	if perf[baseline.MemoryBased.String()].IPCs != 0 {
		t.Error("memory-based does no IPC")
	}
	// FreePart within a modest factor of unprotected, far below per-API.
	if fp.Time >= perf[baseline.LibraryPerAPI.String()].Time {
		t.Errorf("FreePart (%v) should beat per-API isolation (%v)", fp.Time, perf[baseline.LibraryPerAPI.String()].Time)
	}
	overhead := float64(fp.Time)/float64(base.Time) - 1
	if overhead > 2.5 {
		t.Errorf("FreePart overhead = %.1f%% on tiny inputs, implausibly high", overhead*100)
	}
}

func TestOverheadShrinksWithInputSize(t *testing.T) {
	// The paper's 3.68% holds because real workloads are compute-dominated
	// (1.7 MB images). FreePart's fixed per-call IPC cost amortizes as
	// inputs grow: overhead at large cells must be well below tiny cells
	// and land in the single digits.
	measure := func(cell int) float64 {
		fp, err := baseline.MeasureFreePart(true, 1, 8, 4, cell)
		if err != nil {
			t.Fatal(err)
		}
		base, err := baseline.MeasureUnprotected(1, 8, 4, cell)
		if err != nil {
			t.Fatal(err)
		}
		return 100 * (float64(fp.Time)/float64(base.Time) - 1)
	}
	tiny := measure(6)
	big := measure(48) // 384x192 = 72 KiB per sheet
	if big >= tiny {
		t.Fatalf("overhead should shrink with input size: tiny=%.1f%% big=%.1f%%", tiny, big)
	}
	if big > 12 {
		t.Fatalf("overhead at realistic sizes = %.1f%%, want single digits", big)
	}
}

func TestLDCAblationShape(t *testing.T) {
	with, err := baseline.MeasureFreePart(true, 2, 8, 4, baseline.DefaultCell)
	if err != nil {
		t.Fatal(err)
	}
	without, err := baseline.MeasureFreePart(false, 2, 8, 4, baseline.DefaultCell)
	if err != nil {
		t.Fatal(err)
	}
	if with.Bytes >= without.Bytes {
		t.Errorf("LDC bytes (%d) should be < no-LDC bytes (%d)", with.Bytes, without.Bytes)
	}
	if with.Time >= without.Time {
		t.Errorf("LDC time (%v) should be < no-LDC time (%v)", with.Time, without.Time)
	}
}

func TestPartitionSweepShape(t *testing.T) {
	// Fig. 4: 4 type-based partitions beat random 5-partition splits that
	// tear the hot pair apart.
	cat := analysis.New(all.Registry(), nil).Categorize()
	p4, err := baseline.MeasurePartitioned(4, baseline.TypePartitionOf(cat), 2, 8, 4, baseline.DefaultCell)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := baseline.MeasurePartitioned(5, baseline.SplitHotPairPartitionOf(cat), 2, 8, 4, baseline.DefaultCell)
	if err != nil {
		t.Fatal(err)
	}
	if p5.Time <= p4.Time {
		t.Errorf("splitting the hot pair (%v) should cost more than 4 partitions (%v)", p5.Time, p4.Time)
	}
	ratio := float64(p5.Time) / float64(p4.Time)
	if ratio < 1.05 {
		t.Errorf("hot-pair split ratio = %.2f, want a visible jump", ratio)
	}
}

func TestRandomPartitionCoversAll(t *testing.T) {
	f := baseline.RandomPartitionOf(baseline.OMRAPIs(), 6, 42)
	reg := simcv.Registry()
	seen := map[int]bool{}
	for _, name := range baseline.OMRAPIs() {
		api := reg.MustGet(name)
		p := f(api)
		if p < 0 || p >= 6 {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 6 {
		t.Fatalf("only %d partitions used", len(seen))
	}
}
