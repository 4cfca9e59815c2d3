package main

import (
	"crypto/sha256"
	"fmt"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/trace"
	"freepart.dev/freepart/internal/vclock"
)

// apps-fig13: the compute path. Each of the 23 apps of apps.All() runs at
// the Fig. 13 input scale on a fresh runtime with the paper defaults (lazy
// data copy on) and the hybrid categorization Fig. 13 uses, from one
// goroutine. The same inputs on core.Direct give the output reference and
// the overhead baseline. apps.NewEnvScaled seeds inputs by app id, so this
// workload ignores the seed.
const appsScale = 8

// appOutput is one app run's result: the virtual time it took and a digest
// of every file in its filesystem afterwards.
type appOutput struct {
	virt  vclock.Duration
	files map[string][sha256.Size]byte
	err   error
}

func runApp(a apps.App, k *kernel.Kernel, env *apps.Env) appOutput {
	v0 := k.Clock.Now()
	err := a.Run(env)
	return appOutput{virt: k.Clock.Now() - v0, err: err}
}

func digestFiles(k *kernel.Kernel) map[string][sha256.Size]byte {
	out := map[string][sha256.Size]byte{}
	for _, path := range k.FS.List("") {
		data, err := k.FS.ReadFile(path)
		if err != nil {
			continue // listed paths exist; nothing removes files between the two calls
		}
		out[path] = sha256.Sum256(data)
	}
	return out
}

func newAppsFig13(int64) (workload, error) {
	var ref []appOutput
	for _, a := range apps.All() {
		k := kernel.New()
		out := runApp(a, k, apps.NewEnvScaled(k, core.NewDirect(k, all.Registry()), a, appsScale))
		if out.err != nil {
			return workload{}, fmt.Errorf("%s direct: %w", a.Name, out.err)
		}
		out.files = digestFiles(k)
		ref = append(ref, out)
	}
	return workload{op: "app run", setup: func(t *tracer) (pass, error) { return setupApps(t, ref) }}, nil
}

// hybridCategorization runs the dynamic suite once and categorizes, as
// Fig. 13 does.
func hybridCategorization() *analysis.Categorization {
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(kernel.New(), runner)
	return analysis.New(reg, runner.Recorder).Categorize()
}

type appRun struct {
	app apps.App
	k   *kernel.Kernel
	rt  *core.Runtime
	env *apps.Env
	out appOutput
}

type appsPass struct {
	runs []*appRun
	ref  []appOutput
}

// setupApps builds every app's runtime and environment before the first
// timed run.
func setupApps(t *tracer, ref []appOutput) (*appsPass, error) {
	cat := hybridCategorization()
	p := &appsPass{ref: ref}
	for _, a := range apps.All() {
		k := kernel.New()
		rt, err := core.New(k, t.registry(all.Registry()), cat, core.Default())
		if err != nil {
			p.close()
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		env := apps.NewEnvScaled(k, rt, a, appsScale)
		env.Ex = t.caller(rt, k)
		p.runs = append(p.runs, &appRun{app: a, k: k, rt: rt, env: env})
	}
	return p, nil
}

func (p *appsPass) run(t *tracer) []opTime {
	times := make([]opTime, len(p.runs))
	for i, r := range p.runs {
		t.setOp(int64(i))
		start := now()
		r.out = runApp(r.app, r.k, r.env)
		times[i] = opTime{start, now()}
	}
	for _, r := range p.runs {
		r.out.files = digestFiles(r.k)
	}
	return times
}

func (p *appsPass) failed() int {
	n := 0
	for _, r := range p.runs {
		if r.out.err != nil {
			n++
		}
	}
	return n
}

// virt reports percentiles over the apps' protected virtual run times, and
// the mean per-app overhead over core.Direct, as Fig. 13 averages it.
func (p *appsPass) virt() virtOut {
	var lat vclock.Latencies
	var v virtOut
	for i, r := range p.runs {
		lat.Add(r.out.virt)
		v.Service += r.out.virt
		v.OverheadPct += overheadPct(r.out.virt, p.ref[i].virt) / float64(len(p.runs))
	}
	v.P50, v.P99 = lat.P50(), lat.P99()
	return v
}

func (p *appsPass) counters() counters {
	var c counters
	for _, r := range p.runs {
		c.addRuntime(r.rt.Metrics.Snapshot())
		c.addMem(r.k)
	}
	return c
}

// check: every file each app leaves behind, inputs and outputs, is
// byte-equal to the unprotected run's.
func (p *appsPass) check() error {
	for i, r := range p.runs {
		if r.out.err != nil {
			return fmt.Errorf("%s: %w", r.app.Name, r.out.err)
		}
		want := p.ref[i].files
		if len(r.out.files) != len(want) {
			return fmt.Errorf("%s: %d files, unprotected %d", r.app.Name, len(r.out.files), len(want))
		}
		for path, sum := range want {
			if r.out.files[path] != sum {
				return fmt.Errorf("%s: %s differs from the unprotected run", r.app.Name, path)
			}
		}
	}
	return nil
}

func (p *appsPass) corrupt() {
	for path, sum := range p.runs[0].out.files {
		sum[0] ^= 1
		p.runs[0].out.files[path] = sum
		return
	}
}

func (p *appsPass) close() {
	for _, r := range p.runs {
		r.rt.Close()
	}
}
