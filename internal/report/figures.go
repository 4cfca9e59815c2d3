package report

import (
	"fmt"
	"sort"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/baseline"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/metrics"
)

// Fig4 sweeps the partition count: average virtual runtime per K, sampling
// random assignments (the paper's 7,750-per-K subsample, scaled down via
// the samples argument).
func Fig4(from, to, samples, sheets int) (string, error) {
	times, err := baseline.SweepPartitions(from, to, samples, sheets)
	if err != nil {
		return "", err
	}
	s := &Series{
		Title:  fmt.Sprintf("Figure 4: Average Runtime for Different Numbers of Partitions (%d samples/K)", samples),
		XLabel: "partitions", YLabel: "avg virtual runtime (ms)",
	}
	keys := make([]int, 0, len(times))
	for k := range times {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	base := times[keys[0]]
	for _, k := range keys {
		label := ""
		if base > 0 {
			label = fmt.Sprintf("(%.2fx)", times[k]/base)
		}
		s.Points = append(s.Points, Point{X: d(k), Y: times[k] / 1e6, Label: label})
	}
	return s.String(), nil
}

// Fig6 verifies the pipeline pattern across the 56-app study.
func Fig6() (string, error) {
	appsList := attack.Study56()
	follow := 0
	loops := 0
	for _, a := range appsList {
		if a.FollowsPipeline() {
			follow++
		}
		if a.Loops {
			loops++
		}
	}
	return fmt.Sprintf("Figure 6: Pipeline Pattern of Data Processing\n"+
		"  %d/%d studied applications follow load -> process -> (visualize|store)\n"+
		"  %d repeat the loading/processing loop (video-style programs)\n",
		follow, len(appsList), loops), nil
}

// Fig7 tabulates the 241-CVE study corpus by API type and class.
func Fig7() (string, error) {
	tab := attack.CorpusByTypeAndClass(attack.StudyCorpus())
	s := &Series{
		Title:  "Figure 7: CVEs Categorized by Types of Vulnerabilities (241 CVEs)",
		XLabel: "API type / class", YLabel: "#CVEs",
	}
	for _, ty := range framework.ConcreteTypes() {
		classes := tab[ty]
		keys := make([]attack.VulnClass, 0, len(classes))
		for c := range classes {
			keys = append(keys, c)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, c := range keys {
			s.Points = append(s.Points, Point{
				X: fmt.Sprintf("%s/%s", ty.String(), shortClass(c)),
				Y: float64(classes[c]),
			})
		}
	}
	return s.String(), nil
}

// shortClass abbreviates a vulnerability class for figure labels.
func shortClass(c attack.VulnClass) string {
	switch c {
	case attack.ClassMemWrite:
		return "mem-write"
	case attack.ClassMemRead:
		return "mem-read"
	case attack.ClassDoS:
		return "dos"
	case attack.ClassFileRead:
		return "file-read"
	case attack.ClassRCE:
		return "rce"
	default:
		return "other"
	}
}

// OverheadRow is one Fig. 13 sample.
type OverheadRow struct {
	App      string
	Overhead float64 // percent
}

// MeasureOverheads runs every app at the given input scale under Direct
// and under FreePart, returning per-app overhead percentages.
func MeasureOverheads(scale int, ldc bool) ([]OverheadRow, error) {
	_, cat := hybridCat()
	var rows []OverheadRow
	for _, a := range apps.All() {
		// Unprotected baseline.
		k1 := kernel.New()
		d1 := core.NewDirect(k1, all.Registry())
		e1 := apps.NewEnvScaled(k1, d1, a, scale)
		t0 := k1.Clock.Now()
		if err := a.Run(e1); err != nil {
			return nil, fmt.Errorf("%s direct: %w", a.Name, err)
		}
		base := k1.Clock.Now() - t0

		// FreePart.
		k2 := kernel.New()
		cfg := core.Default()
		cfg.LazyDataCopy = ldc
		rt, err := core.New(k2, all.Registry(), cat, cfg)
		if err != nil {
			return nil, err
		}
		e2 := apps.NewEnvScaled(k2, rt, a, scale)
		t1 := k2.Clock.Now()
		if err := a.Run(e2); err != nil {
			rt.Close()
			return nil, fmt.Errorf("%s protected: %w", a.Name, err)
		}
		prot := k2.Clock.Now() - t1
		rt.Close()

		rows = append(rows, OverheadRow{App: a.Name, Overhead: metrics.Overhead(base, prot)})
	}
	return rows, nil
}

// Fig13 renders per-app normalized overhead at the given scale, with the
// LDC ablation average appended (§5.2's 3.68% vs 9.7%).
func Fig13(scale int) (string, error) {
	with, err := MeasureOverheads(scale, true)
	if err != nil {
		return "", err
	}
	s := &Series{
		Title:  fmt.Sprintf("Figure 13: Normalized Runtime Overhead of FreePart (input scale %dx)", scale),
		XLabel: "application", YLabel: "overhead %",
	}
	sum := 0.0
	for _, r := range with {
		s.Points = append(s.Points, Point{X: r.App, Y: r.Overhead})
		sum += r.Overhead
	}
	avg := sum / float64(len(with))

	without, err := MeasureOverheads(scale, false)
	if err != nil {
		return "", err
	}
	wsum := 0.0
	for _, r := range without {
		wsum += r.Overhead
	}
	wavg := wsum / float64(len(without))

	out := s.String()
	out += fmt.Sprintf("  average overhead: %.2f%% (paper: 3.68%%)\n", avg)
	out += fmt.Sprintf("  without lazy data copy: %.2f%% (paper: 9.7%%)\n", wavg)
	return out, nil
}

// SecurityMatrix runs every evaluation CVE against every affected app
// under FreePart and reports whether the attack was contained (§5,
// "Correctness of FreePart": all attacks mitigated, no false positives).
// Each exploit is driven through its CVE's own API site (fireCVE); a row
// whose payload never ran reads "-" under "Exploit fired in".
func SecurityMatrix() (string, error) {
	_, cat := hybridCat()
	t := &Table{
		Title:  "Security analysis: 18 CVEs vs affected applications (FreePart)",
		Header: []string{"CVE", "App", "Exploit fired in", "Host alive", "Data safe", "Leak blocked"},
	}
	for _, cve := range attack.EvalCVEs() {
		for _, sample := range cve.Samples {
			a, ok := apps.ByID(sample)
			if !ok {
				continue
			}
			rt, err := core.New(kernel.New(), all.Registry(), cat, core.Default())
			if err != nil {
				return "", err
			}
			log := &attack.Log{}
			rt.OnExploit = log.Handler()
			v, err := fireCVE(rt, cve)
			rt.Close()
			if err != nil {
				return "", err
			}
			firedIn := "-"
			if log.Last() != nil {
				firedIn = "agent"
			}
			t.Add(cve.ID, a.Name, firedIn, fmt.Sprintf("%v", v.hostAlive),
				fmt.Sprintf("%v", v.dataSafe), fmt.Sprintf("%v", v.leakBlocked))
		}
	}
	return t.String(), nil
}

// A14 reproduces §A.1.4: sub-partitioning the data-processing agent beyond
// the four base partitions. Random splits of the DP APIs are sampled; the
// worst case separates hot-loop neighbours (cv.rectangle / cv.putText) and
// pays heavy cross-partition copies.
func A14(samples, sheets int) (string, error) {
	_, cat := hybridCat()
	base, err := baseline.MeasurePartitioned(4, baseline.TypePartitionOf(cat), sheets, 8, 4)
	if err != nil {
		return "", err
	}
	worst := 0.0
	sum := 0.0
	runs := 0
	for k := 5; k <= 8; k++ {
		for s := 0; s < samples; s++ {
			p, err := baseline.MeasurePartitioned(k,
				baseline.RandomPartitionOf(baseline.OMRAPIs(), k, int64(k*777+s)), sheets, 8, 4)
			if err != nil {
				return "", err
			}
			r := float64(p.Time) / float64(base.Time)
			sum += r
			runs++
			if r > worst {
				worst = r
			}
		}
	}
	// The adversarial split that motivates the paper's 16x worst case.
	adv, err := baseline.MeasurePartitioned(5, baseline.SplitHotPairPartitionOf(cat), sheets, 8, 4)
	if err != nil {
		return "", err
	}
	advRatio := float64(adv.Time) / float64(base.Time)
	if advRatio > worst {
		worst = advRatio
	}
	return fmt.Sprintf("A.1.4: Partitioning Beyond Four Partitions\n"+
		"  baseline (4 type partitions): %v\n"+
		"  random sub-partitions sampled: %d, avg ratio %.2fx, worst %.2fx\n"+
		"  adversarial hot-pair split (rectangle|putText apart): %.2fx\n",
		base.Time, runs, sum/float64(runs), worst, advRatio), nil
}

// Fig12 reproduces the syscall-derivation walkthrough of Fig. 12: the
// per-API required syscalls for the Fig. 10 facial-recognition program's
// loading APIs, and the union that becomes the data-loading agent's
// allowlist.
func Fig12() (string, error) {
	reg := all.Registry()
	t := &Table{
		Title:  "Figure 12: Obtaining Required System Calls (data-loading APIs of the Fig. 10 program)",
		Header: []string{"API / agent", "Required syscalls"},
	}
	apis := []string{"cv.CascadeClassifier", "cv.VideoCapture", "cv.VideoCapture.read"}
	union := map[string]bool{}
	for _, name := range apis {
		api := reg.MustGet(name)
		var names []string
		for _, sc := range api.Syscalls {
			names = append(names, string(sc))
			union[string(sc)] = true
		}
		t.Add(name, fmt.Sprintf("%v", names))
	}
	var all []string
	for sc := range union {
		all = append(all, sc)
	}
	sort.Strings(all)
	t.Add("data-loading agent (union)", fmt.Sprintf("%v", all))
	return t.String(), nil
}

// AblationRow is one mechanism's overhead contribution.
type AblationRow struct {
	Config   string
	Overhead float64
}

// Ablation measures the overhead contribution of each FreePart mechanism
// on the OMR workload: full system, then each of lazy data copy, temporal
// permissions, syscall restriction, and checkpointing toggled off — the
// design-choice ablation DESIGN.md calls out.
func Ablation(sheets int) (string, error) {
	base, err := baseline.MeasureUnprotected(sheets, 8, 4)
	if err != nil {
		return "", err
	}
	measure := func(name string, mutate func(*core.Config)) (AblationRow, error) {
		k := kernel.New()
		reg := all.Registry()
		cat := hybridCatCached(reg)
		cfg := core.Default()
		cfg.AppAPIs = baseline.OMRAPIs()
		mutate(&cfg)
		rt, err := core.New(k, reg, cat, cfg)
		if err != nil {
			return AblationRow{}, err
		}
		defer rt.Close()
		tmpl, err := rt.Host.Space().Alloc(64)
		if err != nil {
			return AblationRow{}, err
		}
		if cfg.EnforcePermissions {
			rt.RegisterCritical(tmpl)
		}
		start := k.Clock.Now()
		read := func(off, n int) ([]byte, error) {
			return rt.Host.Space().Load(tmpl.Base+mem.Addr(off), n)
		}
		if err := baseline.RunOMRWorkload(k, rt, read, sheets, 8, 4); err != nil {
			return AblationRow{}, err
		}
		elapsed := k.Clock.Now() - start
		return AblationRow{Config: name, Overhead: metrics.Overhead(base.Time, elapsed)}, nil
	}

	t := &Table{
		Title:  "Ablation: overhead contribution of each FreePart mechanism (OMR workload)",
		Header: []string{"Configuration", "Overhead vs unprotected"},
	}
	rows := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"full FreePart", func(c *core.Config) {}},
		{"without lazy data copy", func(c *core.Config) { c.LazyDataCopy = false }},
		{"without temporal permissions", func(c *core.Config) { c.EnforcePermissions = false }},
		{"without syscall restriction", func(c *core.Config) { c.RestrictSyscalls = false }},
		{"without checkpointing", func(c *core.Config) { c.CheckpointStateful = false }},
		{"without restart supervisor", func(c *core.Config) { c.Restart = false }},
	}
	for _, r := range rows {
		row, err := measure(r.name, r.mutate)
		if err != nil {
			return "", err
		}
		t.Add(row.Config, fmt.Sprintf("%.2f%%", row.Overhead))
	}
	t.Notes = append(t.Notes,
		"Isolation (IPC + copies) dominates; permissions, filters, checkpoints, and restart are cheap.",
	)
	return t.String(), nil
}

// hybridCatCached memoizes the categorization across ablation rows.
var cachedCat *analysis.Categorization

func hybridCatCached(reg *framework.Registry) *analysis.Categorization {
	if cachedCat == nil {
		_, cachedCat = hybridCat()
	}
	return cachedCat
}
