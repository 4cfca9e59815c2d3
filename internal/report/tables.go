package report

import (
	"bytes"
	"fmt"
	"sort"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/baseline"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/trace"
)

// hybridCat runs the full dynamic suite once and categorizes.
func hybridCat() (*analysis.Analyzer, *analysis.Categorization) {
	k := kernel.New()
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(k, runner)
	a := analysis.New(reg, runner.Recorder)
	return a, a.Categorize()
}

// Table1 reproduces the effectiveness comparison: security verdicts,
// isolated CVE APIs, granularity, process counts for the five baselines
// and FreePart, with attacks executed live.
func Table1() (string, error) {
	t := &Table{
		Title:  "Table 1: Effectiveness of Existing Techniques and FreePart (attacks executed live)",
		Header: []string{"Technique", "M (mem corrupt)", "C (code rewrite)", "D (DoS)", "#CVE APIs isolated", "Min APIs/proc", "Max APIs/proc", "#Processes"},
	}
	add := func(v baseline.SecurityVerdict) {
		min, max := 1<<30, 0
		for _, n := range v.APIsPerProcess {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if min == 1<<30 {
			min = 0
		}
		t.Add(v.Technique, check(v.MPrevented), check(v.CPrevented), check(v.DPrevented),
			d(v.IsolatedCVEAPIs), d(min), d(max), d(v.Processes))
	}
	for _, kind := range []baseline.Kind{
		baseline.CodeAPI, baseline.CodeAPIData, baseline.LibraryEntire,
		baseline.LibraryPerAPI, baseline.MemoryBased,
	} {
		v, err := baseline.EvaluateSecurity(kind)
		if err != nil {
			return "", err
		}
		add(v)
	}
	fp, err := baseline.EvaluateFreePartSecurity()
	if err != nil {
		return "", err
	}
	add(fp)
	t.Notes = append(t.Notes, "M: corrupt critical template; C: rewrite another API's code; D: crash the application.")
	return t.String(), nil
}

// Table2 categorizes the motivating example's API universe (the simcv
// registry standing in for the 86 APIs of the paper's Table 2).
func Table2() (string, error) {
	_, cat := hybridCat()
	reg := all.Registry()
	counts := map[framework.APIType][]string{}
	for _, api := range reg.ByFramework("simcv") {
		ty := cat.TypeOf(api.Name)
		counts[ty] = append(counts[ty], api.Name)
	}
	t := &Table{
		Title:  "Table 2: Framework APIs Categorized for the Motivating Example (simcv)",
		Header: []string{"Type", "# APIs", "Examples"},
	}
	for _, ty := range framework.ConcreteTypes() {
		names := counts[ty]
		sort.Strings(names)
		ex := names
		if len(ex) > 4 {
			ex = ex[:4]
		}
		t.Add(ty.Long(), d(len(names)), fmt.Sprintf("%v", ex))
	}
	return t.String(), nil
}

// Table3 aggregates vulnerable-API usage across the 56-app study.
func Table3() (string, error) {
	rows := attack.Table3(attack.Study56())
	t := &Table{
		Title:  "Table 3: Categorization of Vulnerable APIs in 56 Applications",
		Header: []string{"Framework", "DL avg", "DL max", "DL total", "DP avg", "DP max", "DP total", "V avg", "V max", "V total", "ST avg", "ST max", "ST total"},
	}
	for _, r := range rows {
		t.Add(r.Framework,
			f1(r.Avg[framework.TypeLoading]), d(r.Max[framework.TypeLoading]), d(r.Total[framework.TypeLoading]),
			f1(r.Avg[framework.TypeProcessing]), d(r.Max[framework.TypeProcessing]), d(r.Total[framework.TypeProcessing]),
			f1(r.Avg[framework.TypeVisualizing]), d(r.Max[framework.TypeVisualizing]), d(r.Total[framework.TypeVisualizing]),
			f1(r.Avg[framework.TypeStoring]), d(r.Max[framework.TypeStoring]), d(r.Total[framework.TypeStoring]))
	}
	return t.String(), nil
}

// Table4 lists example categorized APIs per framework.
func Table4() (string, error) {
	_, cat := hybridCat()
	reg := all.Registry()
	t := &Table{
		Title:  "Table 4: API Type Categorization Examples",
		Header: []string{"Framework", "Type", "Examples"},
	}
	for _, fw := range reg.Frameworks() {
		perType := map[framework.APIType][]string{}
		for _, api := range reg.ByFramework(fw) {
			ty := cat.TypeOf(api.Name)
			if len(perType[ty]) < 3 {
				perType[ty] = append(perType[ty], api.Name)
			}
		}
		for _, ty := range framework.ConcreteTypes() {
			if len(perType[ty]) == 0 {
				continue
			}
			t.Add(fw, ty.String(), fmt.Sprintf("%v", perType[ty]))
		}
	}
	return t.String(), nil
}

// Table5 lists the evaluation CVEs.
func Table5() (string, error) {
	t := &Table{
		Title:  "Table 5: CVEs used for Evaluation",
		Header: []string{"CVE", "Class", "API site", "API type", "Affected samples"},
	}
	for _, c := range attack.EvalCVEs() {
		t.Add(c.ID, c.Class.String(), c.API, c.APIType.String(), fmt.Sprintf("%v", c.Samples))
	}
	return t.String(), nil
}

// Table6 runs all 23 applications and tabulates their API usage.
func Table6() (string, error) {
	_, cat := hybridCat()
	t := &Table{
		Title:  "Table 6: Applications used for Evaluation (measured API usage)",
		Header: []string{"ID", "Name", "Framework", "SLOC", "DL uniq", "DL tot", "DP uniq", "DP tot", "V uniq", "V tot", "ST uniq", "ST tot"},
	}
	for _, a := range apps.All() {
		k := kernel.New()
		e := apps.NewEnv(k, core.NewDirect(k, all.Registry()), a)
		if err := a.Run(e); err != nil {
			return "", fmt.Errorf("%s: %w", a.Name, err)
		}
		usage := analysis.UsageByType(cat, e.Calls)
		dl, dp := usage[framework.TypeLoading], usage[framework.TypeProcessing]
		v, st := usage[framework.TypeVisualizing], usage[framework.TypeStoring]
		t.Add(d(a.ID), a.Name, a.Framework, d(a.SLOC),
			d(dl.Unique), d(dl.Total), d(dp.Unique), d(dp.Total),
			d(v.Unique), d(v.Total), d(st.Unique), d(st.Total))
	}
	return t.String(), nil
}

// Table7 derives the per-agent-type syscall allowlists for the simcv APIs.
func Table7() (string, error) {
	a, cat := hybridCat()
	var simcvAPIs []string
	for _, api := range a.Registry.ByFramework("simcv") {
		simcvAPIs = append(simcvAPIs, api.Name)
	}
	policies := a.DeriveSyscallPolicy(cat, simcvAPIs)
	t := &Table{
		Title:  "Table 7: System Calls Allowed for Each API Type (simcv)",
		Header: []string{"Agent type", "#Syscalls", "Allowed (first 8)"},
	}
	for _, ty := range framework.ConcreteTypes() {
		p := policies[ty]
		names := make([]string, 0, len(p.Allowed))
		for _, sc := range p.Allowed {
			names = append(names, string(sc))
		}
		show := names
		if len(show) > 8 {
			show = show[:8]
		}
		t.Add(ty.Long(), d(len(names)), fmt.Sprintf("%v", show))
	}
	return t.String(), nil
}

// Table8 restates the security rubric (a static definition in the paper).
func Table8() (string, error) {
	t := &Table{
		Title:  "Table 8: Rubric for Level of Security of Data and APIs",
		Header: []string{"Criterion", "Checked by"},
	}
	t.Add("Memory corruption on critical data mitigated", "Table 1 attack M")
	t.Add("Memory permissions enforced on critical data", "core temporal permissions (TestTemporalPermissions)")
	t.Add("Critical data not shared with APIs", "address-space isolation (TestSpacesAreIsolated)")
	t.Add("Code-rewriting of other API code mitigated", "Table 1 attack C")
	t.Add("Vulnerable APIs isolated", "Table 1 isolated-CVE column")
	t.Add("APIs distributed over processes", "Table 10 granularity")
	return t.String(), nil
}

// Table9 measures IPCs, bytes, and time per technique on the OMR workload.
func Table9(sheets int) (string, error) {
	t := &Table{
		Title:  "Table 9: Overhead of Existing Techniques and FreePart (OMR workload)",
		Header: []string{"Technique", "#IPC", "Data (bytes)", "Time (virtual)"},
	}
	for _, kind := range []baseline.Kind{
		baseline.CodeAPI, baseline.CodeAPIData, baseline.LibraryEntire,
		baseline.LibraryPerAPI, baseline.MemoryBased,
	} {
		p, err := baseline.MeasureBaseline(kind, sheets, 8, 4, baseline.DefaultCell)
		if err != nil {
			return "", err
		}
		t.Add(p.Technique, u(p.IPCs), u(p.Bytes), p.Time.String())
	}
	fp, err := baseline.MeasureFreePart(true, sheets, 8, 4, baseline.DefaultCell)
	if err != nil {
		return "", err
	}
	t.Add(fp.Technique, u(fp.IPCs), u(fp.Bytes), fp.Time.String())
	base, err := baseline.MeasureUnprotected(sheets, 8, 4, baseline.DefaultCell)
	if err != nil {
		return "", err
	}
	t.Add(base.Technique, u(base.IPCs), u(base.Bytes), base.Time.String())
	return t.String(), nil
}

// Table10 reports APIs per process for every technique.
func Table10() (string, error) {
	t := &Table{
		Title:  "Table 10: API Isolation Granularity (APIs per process, host first)",
		Header: []string{"Technique", "APIs per process"},
	}
	for _, kind := range []baseline.Kind{
		baseline.CodeAPI, baseline.CodeAPIData, baseline.LibraryEntire,
		baseline.LibraryPerAPI, baseline.MemoryBased,
	} {
		v, err := baseline.EvaluateSecurity(kind)
		if err != nil {
			return "", err
		}
		t.Add(v.Technique, fmt.Sprintf("%v", v.APIsPerProcess))
	}
	fp, err := baseline.EvaluateFreePartSecurity()
	if err != nil {
		return "", err
	}
	t.Add(fp.Technique, fmt.Sprintf("%v", fp.APIsPerProcess))
	return t.String(), nil
}

// Table11 reports the dynamic analysis coverage per framework.
func Table11() (string, error) {
	k := kernel.New()
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(k, runner)
	t := &Table{
		Title:  "Table 11: Coverage of Dynamic Analysis for API Categorization",
		Header: []string{"Framework", "API coverage", "Code coverage"},
	}
	for _, fw := range reg.Frameworks() {
		cov := runner.CoverageFor(fw)
		t.Add(fw, fmt.Sprintf("%.1f%% (%d/%d)", cov.APIPct(), cov.APICovered, cov.APITotal),
			fmt.Sprintf("%.0f%%", cov.CodeCoverage))
	}
	return t.String(), nil
}

// Table12 runs every app under FreePart and reports lazy vs eager copies.
func Table12() (string, error) {
	_, cat := hybridCat()
	t := &Table{
		Title:  "Table 12: Statistics of Lazy Data Copy Operations",
		Header: []string{"Application", "Lazy copies", "Eager copies"},
	}
	var lazyTotal, eagerTotal uint64
	for _, a := range apps.All() {
		k := kernel.New()
		reg := all.Registry()
		rt, err := core.New(k, reg, cat, core.Default())
		if err != nil {
			return "", err
		}
		e := apps.NewEnv(k, rt, a)
		if err := a.Run(e); err != nil {
			rt.Close()
			return "", fmt.Errorf("%s: %w", a.Name, err)
		}
		s := rt.Metrics.Snapshot()
		rt.Close()
		t.Add(a.Name, u(s.LazyCopies), u(s.EagerCopies))
		lazyTotal += s.LazyCopies
		eagerTotal += s.EagerCopies
	}
	frac := 100 * float64(lazyTotal) / float64(lazyTotal+eagerTotal)
	t.Add("Total", fmt.Sprintf("%d (%.2f%%)", lazyTotal, frac),
		fmt.Sprintf("%d (%.2f%%)", eagerTotal, 100-frac))
	return t.String(), nil
}

// TableRobustness sweeps fault-injection intensity over the OMRChecker
// pipeline and reports, per intensity, the injected fault mix and the
// supervision work (restarts, retries, degradations) needed to keep every
// run's output byte-identical to the fault-free baseline.
func TableRobustness(seedsPer, sheets int) (string, error) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	run := func(eng *chaos.Engine) (csv []byte, scores []int, snap metrics.Snapshot, err error) {
		cfg := core.Default()
		if eng != nil {
			cfg = core.ChaosConfig(eng)
		}
		k := kernel.New()
		rt, err := core.New(k, reg, cat, cfg)
		if err != nil {
			return nil, nil, snap, err
		}
		defer rt.Close()
		a, _ := apps.ByID(8) // OMRChecker
		e := apps.NewEnv(k, rt, a)
		func() {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("pipeline aborted: %v", r)
				}
			}()
			_, scores, err = apps.OMRGradeAll(e, sheets)
		}()
		if err != nil {
			return nil, nil, rt.Metrics.Snapshot(), err
		}
		csv, err = k.FS.ReadFile(e.Dir + "/results.csv")
		return csv, scores, rt.Metrics.Snapshot(), err
	}

	baseCSV, _, _, err := run(nil)
	if err != nil {
		return "", err
	}
	t := &Table{
		Title:  "Robustness: supervision policy under seeded fault injection (OMR workload)",
		Header: []string{"Intensity", "Injected", "Restarts", "Retries", "Degraded", "Degraded calls", "Output equal"},
	}
	for _, intensity := range []float64{0, 0.02, 0.05, 0.10, 0.20} {
		var injected, restarts, retries, degraded, degradedCalls uint64
		equal := 0
		for seed := 1; seed <= seedsPer; seed++ {
			eng := chaos.New(chaos.Scaled(int64(seed), intensity))
			csv, _, snap, err := run(eng)
			if err == nil && bytes.Equal(csv, baseCSV) {
				equal++
			}
			injected += eng.Injected()
			restarts += snap.Restarts
			retries += snap.Retries
			degraded += snap.Degraded
			degradedCalls += snap.DegradedCalls
		}
		t.Add(fmt.Sprintf("%.2f", intensity), u(injected), u(restarts), u(retries),
			u(degraded), u(degradedCalls), fmt.Sprintf("%d/%d", equal, seedsPer))
	}
	return t.String(), nil
}
