package baseline

import (
	"fmt"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/vclock"
	"freepart.dev/freepart/internal/workload"
)

// OMRAPIs is the motivating example's API set: the calls the OMRChecker
// workload issues (Table 2's categorized APIs, abbreviated to the ones the
// pipeline exercises).
func OMRAPIs() []string {
	return []string{
		"cv.imread", "cv.morphologyEx", "cv.threshold", "cv.erode",
		"cv.GaussianBlur", "cv.findContours", "cv.warpPerspective",
		"cv.rectangle", "cv.putText", "cv.resize", "cv.cvtColor",
		"cv.equalizeHist", "cv.normalize", "cv.countNonZero", "cv.mean",
		"cv.imshow", "cv.namedWindow", "cv.destroyAllWindows",
		"cv.imwrite",
	}
}

// SecurityVerdict is one Table 1 row's attack outcomes, derived by
// executing the attacks rather than asserting them.
type SecurityVerdict struct {
	Technique string
	Processes int
	// MPrevented: the memory-corruption attack on the critical template
	// failed to change it.
	MPrevented bool
	// CPrevented: the code-rewrite attack on another API's code failed.
	CPrevented bool
	// DPrevented: the DoS attack left the host program alive.
	DPrevented bool
	// IsolatedCVEAPIs counts vulnerable APIs running outside the host
	// process.
	IsolatedCVEAPIs int
	// APIsPerProcess is Table 10's granularity row (host first).
	APIsPerProcess []int
}

// templateBytes is the critical-data fixture.
func templateBytes() []byte {
	b := make([]byte, 32)
	for i := range b {
		b[i] = byte(0x40 + i)
	}
	return b
}

// evalAttack builds a fresh system of the kind and fires one exploit
// through cv.imread, returning the system for post-conditions.
func evalAttack(kind Kind, crafted func(s *System) []byte) (*System, *attack.Log, error) {
	k := kernel.New()
	reg := all.Registry()
	s, err := New(kind, k, reg, OMRAPIs())
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.PlaceCriticalAuto("template", templateBytes()); err != nil {
		return nil, nil, err
	}
	log := &attack.Log{}
	s.InstallExploitHandler(log.Handler())
	k.FS.WriteFile("/evil.img", crafted(s))
	_, _, _ = s.Call("cv.imread", framework.Str("/evil.img"))
	return s, log, nil
}

// EvaluateSecurity runs the three Table 1 attacks against one baseline
// technique.
func EvaluateSecurity(kind Kind) (SecurityVerdict, error) {
	v := SecurityVerdict{Technique: kind.String()}

	// Attack M: corrupt the template through the imread exploit. The
	// §5.3 attacker knows the template's exact address.
	s, _, err := evalAttack(kind, func(s *System) []byte {
		_, r, _ := s.Critical("template")
		return attack.Corrupt("CVE-2017-12597", r.Base, []byte("OWNED!!!"))
	})
	if err != nil {
		return v, err
	}
	proc, r, _ := s.Critical("template")
	after, _ := proc.Space().Load(r.Base, 8)
	v.MPrevented = string(after) != "OWNED!!!"
	v.Processes = len(s.Processes())
	v.APIsPerProcess = s.APIsPerProcess()
	v.IsolatedCVEAPIs = s.isolatedCVEAPIs()

	// Attack C: rewrite another API's code (morphologyEx) from the
	// exploited imread.
	s, _, err = evalAttack(kind, func(s *System) []byte {
		_, code, _ := s.CodeRegion("cv.morphologyEx")
		return attack.CodeRewrite("CVE-2017-17760", code.Base, 16)
	})
	if err != nil {
		return v, err
	}
	cproc, code, _ := s.CodeRegion("cv.morphologyEx")
	got, gerr := cproc.Space().Load(code.Base, 1)
	v.CPrevented = gerr != nil || got[0] != 0xCC

	// Attack D: crash via DoS; the application survives iff its host
	// process does.
	s, _, err = evalAttack(kind, func(s *System) []byte {
		return attack.DoS("CVE-2017-14136")
	})
	if err != nil {
		return v, err
	}
	v.DPrevented = s.Host().Alive()
	return v, nil
}

// isolatedCVEAPIs counts vulnerable APIs homed outside the host.
func (s *System) isolatedCVEAPIs() int {
	n := 0
	for name := range s.homeOf {
		api, ok := s.Reg.Get(name)
		if ok && api.Vulnerable() && s.HomeOf(name) != s.host {
			n++
		}
	}
	return n
}

// EvaluateFreePartSecurity runs the same three attacks against a FreePart
// deployment, producing a comparable verdict.
func EvaluateFreePartSecurity() (SecurityVerdict, error) {
	v := SecurityVerdict{Technique: "FreePart"}

	build := func() (*kernel.Kernel, *core.Runtime, *attack.Log, mem.Region, error) {
		k := kernel.New()
		reg := all.Registry()
		cat := analysis.New(reg, nil).Categorize()
		cfg := core.Default()
		cfg.AppAPIs = OMRAPIs()
		rt, err := core.New(k, reg, cat, cfg)
		if err != nil {
			return nil, nil, nil, mem.Region{}, err
		}
		log := &attack.Log{}
		rt.OnExploit = log.Handler()
		tmpl, err := rt.Host.Space().Alloc(32)
		if err != nil {
			return nil, nil, nil, mem.Region{}, err
		}
		if err := rt.Host.Space().Store(tmpl.Base, templateBytes()); err != nil {
			return nil, nil, nil, mem.Region{}, err
		}
		rt.RegisterCritical(tmpl)
		return k, rt, log, tmpl, nil
	}

	// Attack M.
	k, rt, _, tmpl, err := build()
	if err != nil {
		return v, err
	}
	k.FS.WriteFile("/evil.img", attack.Corrupt("CVE-2017-12597", tmpl.Base, []byte("OWNED!!!")))
	_, _, _ = rt.Call("cv.imread", framework.Str("/evil.img"))
	after, _ := rt.Host.Space().Load(tmpl.Base, 8)
	v.MPrevented = string(after) != "OWNED!!!"
	v.Processes = len(k.Processes())
	v.APIsPerProcess = freePartAPIsPerProcess(rt)
	v.IsolatedCVEAPIs = freePartIsolatedCVEs(rt)
	rt.Close()

	// Attack C: the rewrite payload needs mprotect, which no agent filter
	// allows. Give the attacker a code page in the loading agent to aim at.
	k, rt, clog, _, err := build()
	if err != nil {
		return v, err
	}
	loading, _ := rt.AgentForType(framework.TypeLoading)
	code, _ := loading.Space().Alloc(mem.PageSize)
	_, _ = loading.Space().ProtectRegion(code, mem.PermRead|mem.PermExec)
	k.FS.WriteFile("/evil.img", attack.CodeRewrite("CVE-2017-17760", code.Base, 16))
	_, _, _ = rt.Call("cv.imread", framework.Str("/evil.img"))
	rewrote := clog.Last() != nil && clog.Last().Rewrote
	v.CPrevented = !rewrote
	rt.Close()

	// Attack D.
	k, rt, _, _, err = build()
	if err != nil {
		return v, err
	}
	k.FS.WriteFile("/evil.img", attack.DoS("CVE-2017-14136"))
	_, _, _ = rt.Call("cv.imread", framework.Str("/evil.img"))
	v.DPrevented = rt.Host.Alive()
	rt.Close()
	return v, nil
}

// freePartAPIsPerProcess computes Table 10's FreePart row for the OMR set.
func freePartAPIsPerProcess(rt *core.Runtime) []int {
	counts := []int{0, 0, 0, 0, 0} // host, DL, DP, V, ST
	for _, name := range OMRAPIs() {
		switch rt.Cat.TypeOf(name) {
		case framework.TypeLoading:
			counts[1]++
		case framework.TypeProcessing:
			counts[2]++
		case framework.TypeVisualizing:
			counts[3]++
		case framework.TypeStoring:
			counts[4]++
		}
	}
	return counts
}

// freePartIsolatedCVEs counts vulnerable OMR APIs (all isolated from the
// host under FreePart).
func freePartIsolatedCVEs(rt *core.Runtime) int {
	n := 0
	for _, name := range OMRAPIs() {
		if api, ok := rt.Reg.Get(name); ok && api.Vulnerable() {
			n++
		}
	}
	return n
}

// Perf is one Table 9 row: IPC count, bytes moved, virtual time.
type Perf struct {
	Technique string
	IPCs      uint64
	Bytes     uint64
	Time      vclock.Duration
}

// omrWorkload drives the motivating-example pipeline: per sheet, load →
// preprocess → per-bubble template reads (the hot loop) → annotate → show
// → store.
func omrWorkload(k *kernel.Kernel, ex core.Caller, readTemplate func(off, n int) ([]byte, error), sheets, questions, options, cell int) error {
	if cell <= 0 {
		cell = DefaultCell
	}
	gen := workload.New(99)
	for i := 0; i < sheets; i++ {
		path := fmt.Sprintf("/omr/%03d.img", i)
		enc, _ := gen.EncodedOMRSheet(questions, options, cell)
		k.FS.WriteFile(path, enc)

		imgs, _, err := ex.Call("cv.imread", framework.Str(path))
		if err != nil {
			return err
		}
		morph, _, err := ex.Call("cv.morphologyEx", imgs[0].Value(), framework.Str("close"))
		if err != nil {
			return err
		}
		// The real OMRChecker runs a long pre-processing chain (88 DP call
		// instances per sheet, Table 6); these stages amortize the
		// partition-boundary copies exactly as in the paper.
		blur, _, err := ex.Call("cv.GaussianBlur", morph[0].Value())
		if err != nil {
			return err
		}
		er, _, err := ex.Call("cv.erode", blur[0].Value())
		if err != nil {
			return err
		}
		eq, _, err := ex.Call("cv.equalizeHist", er[0].Value())
		if err != nil {
			return err
		}
		norm, _, err := ex.Call("cv.normalize", eq[0].Value())
		if err != nil {
			return err
		}
		if _, _, err := ex.Call("cv.findContours", norm[0].Value()); err != nil {
			return err
		}
		thr, _, err := ex.Call("cv.threshold", norm[0].Value(), framework.Int64(100))
		if err != nil {
			return err
		}
		// Hot loop: one template read per bubble (Fig. 2-(b)'s ~800 IPCs
		// per input come from exactly this pattern).
		for q := 0; q < questions; q++ {
			for o := 0; o < options; o++ {
				if _, err := readTemplate((q*options+o)*2, 2); err != nil {
					return err
				}
			}
		}
		canvas := thr[0]
		for q := 0; q < questions; q++ {
			out, _, err := ex.Call("cv.rectangle", canvas.Value(),
				framework.Int64(0), framework.Int64(int64(q*cell)), framework.Int64(int64(cell)), framework.Int64(int64(cell)))
			if err != nil {
				return err
			}
			canvas = out[0]
			out, _, err = ex.Call("cv.putText", canvas.Value(), framework.Str("Q"), framework.Int64(1), framework.Int64(1))
			if err != nil {
				return err
			}
			canvas = out[0]
		}
		if _, _, err := ex.Call("cv.imshow", framework.Str("omr"), canvas.Value()); err != nil {
			return err
		}
		if _, _, err := ex.Call("cv.imwrite", framework.Str("/omr/out.img"), canvas.Value()); err != nil {
			return err
		}
	}
	return nil
}

// DefaultCell sizes OMR bubbles. Each Measure* helper takes the bubble
// size, so an experiment can run the same harness on larger images, which
// make the workload compute-dominated like the paper's 1.7 MB inputs.
const DefaultCell = 6

// MeasureBaseline runs the OMR workload on one baseline technique, with
// bubbles of cell pixels.
func MeasureBaseline(kind Kind, sheets, questions, options, cell int) (Perf, error) {
	k := kernel.New()
	reg := all.Registry()
	s, err := New(kind, k, reg, OMRAPIs())
	if err != nil {
		return Perf{}, err
	}
	// The template lives wherever the technique puts it; a host read of a
	// remote one costs an IPC.
	size := questions * options * 2
	if _, err := s.PlaceCriticalAuto("template", make([]byte, size)); err != nil {
		return Perf{}, err
	}
	start := k.Clock.Now()
	err = omrWorkload(k, s, func(off, n int) ([]byte, error) {
		return s.ReadCritical("template", off, n)
	}, sheets, questions, options, cell)
	if err != nil {
		return Perf{}, err
	}
	snap := s.Metrics.Snapshot()
	return Perf{Technique: kind.String(), IPCs: snap.IPCCalls, Bytes: snap.BytesMoved, Time: k.Clock.Now() - start}, nil
}

// MeasureFreePart runs the OMR workload under the FreePart runtime,
// optionally without lazy data copy (the §5.2 ablation).
func MeasureFreePart(ldc bool, sheets, questions, options, cell int) (Perf, error) {
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	cfg := core.Default()
	cfg.LazyDataCopy = ldc
	cfg.AppAPIs = OMRAPIs()
	rt, err := core.New(k, reg, cat, cfg)
	if err != nil {
		return Perf{}, err
	}
	defer rt.Close()
	size := questions * options * 2
	tmpl, err := rt.Host.Space().Alloc(size)
	if err != nil {
		return Perf{}, err
	}
	rt.RegisterCritical(tmpl)
	start := k.Clock.Now()
	err = omrWorkload(k, rt, func(off, n int) ([]byte, error) {
		// Host-resident template: a plain local read.
		return rt.Host.Space().Load(tmpl.Base+mem.Addr(off), n)
	}, sheets, questions, options, cell)
	if err != nil {
		return Perf{}, err
	}
	snap := rt.Metrics.Snapshot()
	name := "FreePart"
	if !ldc {
		name = "FreePart (no LDC)"
	}
	return Perf{Technique: name, IPCs: snap.IPCCalls, Bytes: snap.BytesMoved, Time: k.Clock.Now() - start}, nil
}

// MeasureUnprotected runs the workload with no isolation at all (the
// normalization baseline of Fig. 13 / Table 9's memory-based row timing).
func MeasureUnprotected(sheets, questions, options, cell int) (Perf, error) {
	k := kernel.New()
	d := core.NewDirect(k, all.Registry())
	size := questions * options * 2
	tmpl, err := d.Proc.Space().Alloc(size)
	if err != nil {
		return Perf{}, err
	}
	start := k.Clock.Now()
	err = omrWorkload(k, d, func(off, n int) ([]byte, error) {
		return d.Proc.Space().Load(tmpl.Base+mem.Addr(off), n)
	}, sheets, questions, options, cell)
	if err != nil {
		return Perf{}, err
	}
	snap := d.Metrics.Snapshot()
	return Perf{Technique: "Unprotected", IPCs: snap.IPCCalls, Bytes: snap.BytesMoved, Time: k.Clock.Now() - start}, nil
}

// RunOMRWorkload exposes the OMR measurement workload for external
// harnesses (ablation studies, benches).
func RunOMRWorkload(k *kernel.Kernel, ex core.Caller, readTemplate func(off, n int) ([]byte, error), sheets, questions, options, cell int) error {
	return omrWorkload(k, ex, readTemplate, sheets, questions, options, cell)
}
