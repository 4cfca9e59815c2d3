// Command freepart is the user-facing CLI of the FreePart reproduction:
//
//	freepart analyze                     # hybrid API categorization + coverage
//	freepart apis [-framework simcv]     # list categorized APIs
//	freepart run -app 8                  # run an evaluation app unprotected
//	freepart protect -app 8              # run it under FreePart, print stats
//	freepart attack -cve CVE-2017-12597  # demonstrate an attack with/without FreePart
//	freepart chaos -seeds 10             # fault-injection sweep with equivalence check
//	freepart list                        # list the evaluation applications
package main

import (
	"flag"
	"fmt"
	"os"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "analyze":
		err = cmdAnalyze()
	case "apis":
		err = cmdAPIs(args)
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(args, false)
	case "protect":
		err = cmdRun(args, true)
	case "attack":
		err = cmdAttack(args)
	case "chaos":
		err = cmdChaos(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: freepart <command> [flags]

commands:
  analyze    run the hybrid analysis and report categorization + coverage
  apis       list categorized framework APIs (-framework to filter)
  list       list the evaluation applications
  run        run an application unprotected (-app <id>, -scale <n>)
  protect    run an application under FreePart (-app <id>, -scale <n>)
  attack     demonstrate an attack (-cve <id>) with and without FreePart
  chaos      sweep seeded fault injection over the pipelines (-seed, -seeds,
             -intensity, -sheets, -requests) and verify output equivalence`)
}

// hybrid runs the dynamic suite and returns the analyzer + categorization.
func hybrid() (*analysis.Analyzer, *analysis.Categorization, *trace.Runner) {
	k := kernel.New()
	reg := all.Registry()
	runner := trace.NewRunner(reg)
	trace.RunSuite(k, runner)
	a := analysis.New(reg, runner.Recorder)
	return a, a.Categorize(), runner
}

func cmdAnalyze() error {
	a, cat, runner := hybrid()
	acc, wrong := a.Accuracy(cat)
	fmt.Printf("hybrid categorization: %d APIs, accuracy %.1f%% against ground truth\n",
		a.Registry.Len(), acc*100)
	for _, w := range wrong {
		fmt.Println("  mismatch:", w)
	}
	if len(cat.Reduced) > 0 {
		fmt.Println("memory-copy-via-file reduction fired for:", cat.Reduced)
	}
	for _, fw := range a.Registry.Frameworks() {
		cov := runner.CoverageFor(fw)
		fmt.Printf("  %-10s API coverage %.1f%% (%d/%d), code coverage %.0f%%\n",
			fw, cov.APIPct(), cov.APICovered, cov.APITotal, cov.CodeCoverage)
	}
	rep := a.Stateful()
	fmt.Printf("stateful APIs: %d (%d with shared state)\n", len(rep.Stateful), len(rep.Shared))
	return nil
}

func cmdAPIs(args []string) error {
	fs := flag.NewFlagSet("apis", flag.ExitOnError)
	fw := fs.String("framework", "", "only this framework")
	_ = fs.Parse(args)
	_, cat, _ := hybrid()
	reg := all.Registry()
	for _, api := range reg.All() {
		if *fw != "" && api.Framework != *fw {
			continue
		}
		flags := ""
		if api.Neutral || cat.Neutral[api.Name] {
			flags += " neutral"
		}
		if api.Stateful {
			flags += " stateful"
		}
		if api.Vulnerable() {
			flags += fmt.Sprintf(" CVEs=%v", api.CVEs)
		}
		fmt.Printf("%-4s %-55s %s%s\n", cat.TypeOf(api.Name).String(), api.Name, api.Framework, flags)
	}
	return nil
}

func cmdList() error {
	for _, a := range apps.All() {
		fmt.Printf("%2d  %-22s %-9s %-7s %s\n", a.ID, a.Name, a.Framework, a.Lang, a.Desc)
	}
	return nil
}

func cmdRun(args []string, protected bool) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	id := fs.Int("app", 8, "application id (see freepart list)")
	scale := fs.Int("scale", 1, "input image scale")
	_ = fs.Parse(args)
	a, ok := apps.ByID(*id)
	if !ok {
		return fmt.Errorf("no app %d", *id)
	}
	k := kernel.New()
	var ex core.Caller
	var rt *core.Runtime
	if protected {
		_, cat, _ := hybrid()
		var err error
		rt, err = core.New(k, all.Registry(), cat, core.Default())
		if err != nil {
			return err
		}
		defer rt.Close()
		ex = rt
	} else {
		ex = core.NewDirect(k, all.Registry())
	}
	e := apps.NewEnvScaled(k, ex, a, *scale)
	start := k.Clock.Now()
	if err := a.Run(e); err != nil {
		return err
	}
	elapsed := k.Clock.Now() - start
	mode := "unprotected"
	if protected {
		mode = "FreePart"
	}
	fmt.Printf("%s (%s): %d framework calls, virtual time %v\n", a.Name, mode, len(e.Calls), elapsed)
	if rt != nil {
		s := rt.Metrics.Snapshot()
		fmt.Printf("  ipc=%d bytes=%d lazy=%d eager=%d (lazy fraction %.1f%%) permFlips=%d restarts=%d\n",
			s.IPCCalls, s.BytesMoved, s.LazyCopies, s.EagerCopies, 100*s.LazyFraction(), s.PermFlips, s.Restarts)
		for _, p := range k.Processes() {
			fmt.Printf("  %-26s %s\n", p.Name(), p.State())
		}
	}
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	cveID := fs.String("cve", "CVE-2017-12597", "evaluation CVE to exploit")
	_ = fs.Parse(args)
	cve, ok := attack.EvalCVEByID(*cveID)
	if !ok {
		return fmt.Errorf("unknown evaluation CVE %s (see freepart analyze)", *cveID)
	}
	fmt.Printf("%s: %s in %s (%s)\n", cve.ID, cve.Class, cve.API, cve.APIType.Long())

	// Unprotected: the exploit corrupts the app's critical data, or kills
	// the app for a DoS.
	un, err := attackUnprotected(cve)
	if err != nil {
		return err
	}
	fmt.Printf("unprotected: exploit fired in %s, critical data now %q, process %s\n",
		un.firedIn, un.data, un.state)

	// Protected: same exploit under FreePart.
	_, cat, _ := hybrid()
	pr, err := attackProtected(cat, cve)
	if err != nil {
		return err
	}
	fmt.Printf("FreePart:    exploit fired in %s, critical data now %q, host %s\n",
		pr.firedIn, pr.data, pr.state)
	fmt.Printf("             restarts=%d\n", pr.restarts)
	return nil
}

// criticalData is what the attack demonstration plants in the victim and
// the exploit tries to overwrite.
const criticalData = "critical-data"

// attackRun is what one exploit left behind in its victim: the monolith
// unprotected, the host under FreePart.
type attackRun struct {
	// firedIn names the process the payload ran in ("-" if it never fired).
	firedIn string
	// data is the victim's critical data after the attack.
	data []byte
	// state is the victim process's state.
	state kernel.ProcState
	// restarts counts agent restarts (FreePart only).
	restarts uint64
}

// attackUnprotected fires cve's exploit at an unprotected monolith.
func attackUnprotected(cve attack.CVE) (attackRun, error) {
	d := core.NewDirect(kernel.New(), all.Registry())
	return fireAt(d, d.Ctx, &d.Ctx.OnExploit, nil, cve)
}

// attackProtected fires cve's exploit at an app running under FreePart.
func attackProtected(cat *analysis.Categorization, cve attack.CVE) (attackRun, error) {
	rt, err := core.New(kernel.New(), all.Registry(), cat, core.Default())
	if err != nil {
		return attackRun{}, err
	}
	defer rt.Close()
	run, err := fireAt(rt, rt.HostCtx(), &rt.OnExploit, rt.RegisterCritical, cve)
	run.restarts = rt.Metrics.Snapshot().Restarts
	return run, err
}

// fireAt plants the critical data in host's process, drives cve's exploit
// through its own API site on c with a payload that overwrites it (or, for
// a DoS, crashes the process it runs in), and reads what is left. hook is
// where the caller's exploit handler lives; register, when set, is told
// the planted region.
func fireAt(c core.Caller, host *framework.Ctx, hook *framework.ExploitFunc, register func(mem.Region), cve attack.CVE) (attackRun, error) {
	run := attackRun{firedIn: "-"}
	exec := (&attack.Log{}).Handler()
	*hook = func(ctx *framework.Ctx, id string, payload []byte) error {
		run.firedIn = ctx.P.Name()
		return exec(ctx, id, payload)
	}
	space := host.P.Space()
	crit, err := space.Alloc(32)
	if err != nil {
		return run, err
	}
	if err := space.Store(crit.Base, []byte(criticalData)); err != nil {
		return run, err
	}
	if register != nil {
		register(crit)
	}
	payload := attack.Corrupt(cve.ID, crit.Base, []byte("OWNED"))
	if cve.Class == attack.ClassDoS {
		payload = attack.DoS(cve.ID)
	}
	if err := attack.Drive(c, host, cve, payload); err != nil {
		return run, err
	}
	run.data, _ = space.Load(crit.Base, len(criticalData))
	run.state = host.P.State()
	return run, nil
}
