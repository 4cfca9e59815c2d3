package report_test

import (
	"fmt"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/report"
)

func TestTable1(t *testing.T) {
	out, err := report.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FreePart") || !strings.Contains(out, "Memory-based") {
		t.Fatalf("table 1 missing rows:\n%s", out)
	}
	// The FreePart row prevents all three attacks.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "FreePart") && strings.Contains(line, "FAILED") {
			t.Fatalf("FreePart row shows a failed defense:\n%s", line)
		}
	}
}

func TestTable2(t *testing.T) {
	out, err := report.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Data Processing") || !strings.Contains(out, "Visualizing") {
		t.Fatalf("table 2 incomplete:\n%s", out)
	}
}

func TestTable3Through5(t *testing.T) {
	for name, fn := range map[string]func() (string, error){
		"t3": report.Table3, "t4": report.Table4, "t5": report.Table5,
	} {
		out, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) < 100 {
			t.Fatalf("%s suspiciously short:\n%s", name, out)
		}
	}
}

func TestTable5Has18CVEs(t *testing.T) {
	out, err := report.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out, "CVE-"); got < 18 {
		t.Fatalf("table 5 lists %d CVEs, want >= 18:\n%s", got, out)
	}
}

func TestTable6(t *testing.T) {
	out, err := report.Table6()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"OMRChecker", "SiamMask", "CapsNet"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table 6 missing %s:\n%s", name, out)
		}
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got < 25 {
		t.Fatalf("table 6 rows = %d", got)
	}
}

func TestTable7(t *testing.T) {
	out, err := report.Table7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Data Loading") || !strings.Contains(out, "openat") {
		t.Fatalf("table 7 incomplete:\n%s", out)
	}
}

func TestTables8Through11(t *testing.T) {
	for name, fn := range map[string]func() (string, error){
		"t8": report.Table8, "t10": report.Table10, "t11": report.Table11,
	} {
		out, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) < 80 {
			t.Fatalf("%s suspiciously short:\n%s", name, out)
		}
	}
	out, err := report.Table9(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Individual APIs") || !strings.Contains(out, "Unprotected") {
		t.Fatalf("table 9 incomplete:\n%s", out)
	}
}

func TestTable12LazyFraction(t *testing.T) {
	out, err := report.Table12()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Total") || !strings.Contains(out, "%") {
		t.Fatalf("table 12 incomplete:\n%s", out)
	}
}

func TestFig4SmallSweep(t *testing.T) {
	out, err := report.Fig4(4, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4") || !strings.Contains(out, "6") {
		t.Fatalf("fig 4 incomplete:\n%s", out)
	}
}

func TestFig6And7(t *testing.T) {
	out, err := report.Fig6()
	if err != nil || !strings.Contains(out, "56/56") {
		t.Fatalf("fig 6: %v\n%s", err, out)
	}
	out, err = report.Fig7()
	if err != nil || !strings.Contains(out, "DL/") || !strings.Contains(out, "DP/") {
		t.Fatalf("fig 7: %v\n%s", err, out)
	}
}

func TestFig13SmallScale(t *testing.T) {
	out, err := report.Fig13(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "average overhead") || !strings.Contains(out, "without lazy data copy") {
		t.Fatalf("fig 13 incomplete:\n%s", out)
	}
}

func TestMeasureOverheadsLDCBeatsNoLDC(t *testing.T) {
	with, err := report.MeasureOverheads(1, true)
	if err != nil {
		t.Fatal(err)
	}
	without, err := report.MeasureOverheads(1, false)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(rows []report.OverheadRow) float64 {
		s := 0.0
		for _, r := range rows {
			s += r.Overhead
		}
		return s / float64(len(rows))
	}
	if avg(with) >= avg(without) {
		t.Fatalf("LDC avg overhead (%.1f%%) should be below no-LDC (%.1f%%)", avg(with), avg(without))
	}
}

func TestSecurityMatrixAllContained(t *testing.T) {
	out, err := report.SecurityMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// Every row must show host alive, data safe, leak blocked.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "CVE-") {
			continue
		}
		if strings.Contains(line, "false") {
			t.Errorf("attack not contained:\n%s", line)
		}
	}
	if got := strings.Count(out, "CVE-"); got < 18 {
		t.Fatalf("security matrix covers %d attack instances, want >= 18", got)
	}
}

// TestSecurityMatrixEveryRowFires pins that each row's exploit reaches its
// CVE's own API site: a row whose payload never fired would read
// "contained" while testing nothing.
func TestSecurityMatrixEveryRowFires(t *testing.T) {
	out, err := report.SecurityMatrix()
	if err != nil {
		t.Fatal(err)
	}
	cves := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "CVE-") {
			continue
		}
		cves[f[0]] = true
		if f[2] != "agent" {
			t.Errorf("exploit did not fire in an agent:\n%s", line)
		}
	}
	if len(cves) != len(attack.EvalCVEs()) {
		t.Fatalf("security matrix covers %d CVEs, want %d", len(cves), len(attack.EvalCVEs()))
	}
}

func TestFig12SyscallDerivation(t *testing.T) {
	out, err := report.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cv.CascadeClassifier", "cv.VideoCapture.read", "union", "ioctl"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig 12 missing %q:\n%s", want, out)
		}
	}
}

func TestAblationShape(t *testing.T) {
	out, err := report.Ablation(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "full FreePart") || !strings.Contains(out, "without lazy data copy") {
		t.Fatalf("ablation incomplete:\n%s", out)
	}
	// Parse the two overheads: no-LDC must exceed full.
	full, noLDC := -1.0, -1.0
	for _, line := range strings.Split(out, "\n") {
		var v float64
		if strings.HasPrefix(line, "full FreePart") {
			_, _ = fmt.Sscanf(strings.Fields(line)[2], "%f%%", &v)
			full = v
		}
		if strings.HasPrefix(line, "without lazy data copy") {
			_, _ = fmt.Sscanf(strings.Fields(line)[4], "%f%%", &v)
			noLDC = v
		}
	}
	if full < 0 || noLDC < 0 || noLDC <= full {
		t.Fatalf("ablation overheads full=%v noLDC=%v:\n%s", full, noLDC, out)
	}
}
