package core_test

import (
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/mem"
)

// TestTieredPolicyMixesBoundaries pins the per-type dispatch: under the
// tiered preset, a loading call crosses a process boundary (IPC, no domain
// switch) while a visualizing call crosses an MPK domain (exactly one
// entry/exit switch pair, no IPC marshalling).
func TestTieredPolicyMixesBoundaries(t *testing.T) {
	k, rt := setup(t, core.ConfigForIsolation(isolation.Tiered()))
	writeImage(k, "/in.img", 8, 8)
	img, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatal(err)
	}
	if s := rt.Metrics.Snapshot(); s.DomainSwitches != 0 {
		t.Fatalf("loading call crossed a domain: %d switches", s.DomainSwitches)
	}
	if _, _, err := rt.Call("cv.imshow", framework.Str("w"), img[0].Value()); err != nil {
		t.Fatal(err)
	}
	if s := rt.Metrics.Snapshot(); s.DomainSwitches != 2 {
		t.Fatalf("visualizing call: %d domain switches, want 2 (entry+exit)", s.DomainSwitches)
	}
}

// TestDomainTierBlocksCrossDomainWrite replays a memory-corruption exploit
// under the all-domain (erim) policy twice: the critical host bytes must
// survive (the PKRU revokes the host-critical key inside the domain), the
// wild write must crash the domain — and with it the host, shared-fate
// semantics — and both runs must record identical fault fields. (The raw
// error strings embed the process-global address-space ID, so the
// comparison is on the structured fault, not the string.)
func TestDomainTierBlocksCrossDomainWrite(t *testing.T) {
	run := func() (string, bool, mem.Fault) {
		k, rt := setup(t, core.ConfigForIsolation(isolation.ERIM()))
		log := &attack.Log{}
		rt.OnExploit = log.Handler()
		crit, err := rt.Host.Space().Alloc(32)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Host.Space().Store(crit.Base, []byte("sensitive")); err != nil {
			t.Fatal(err)
		}
		rt.RegisterCritical(crit)
		k.FS.WriteFile("/evil.img", attack.Corrupt("CVE-2017-12606", crit.Base, []byte("OWNED")))
		_, _, callErr := rt.Call("cv.imread", framework.Str("/evil.img"))
		if callErr == nil {
			t.Fatal("exploited call should fail")
		}
		data, err := rt.Host.Space().Load(crit.Base, 9)
		if err != nil {
			t.Fatalf("critical data must stay readable at steady-state PKRU: %v", err)
		}
		last := log.Last()
		if last == nil || !last.Fired {
			t.Fatal("exploit never fired")
		}
		f, ok := mem.IsFault(last.Err)
		if !ok {
			t.Fatalf("exploit outcome should be a memory fault, got %v", last.Err)
		}
		norm := *f
		norm.Space = 0 // process-global ID, differs between fresh kernels
		return string(data), rt.Host.Alive(), norm
	}
	data1, alive1, fault1 := run()
	if data1 != "sensitive" {
		t.Fatalf("critical data = %q, want untouched", data1)
	}
	if alive1 {
		t.Fatal("domain crash must take the host down (shared address space)")
	}
	if fault1.Kind != mem.AccessWrite {
		t.Fatalf("blocked write should fault as AccessWrite, got %+v", fault1)
	}
	data2, alive2, fault2 := run()
	if data1 != data2 || alive1 != alive2 || fault1 != fault2 {
		t.Fatalf("domain fault path not deterministic:\n%q %v %+v\nvs\n%q %v %+v",
			data1, alive1, fault1, data2, alive2, fault2)
	}
}

// TestDomainTierNoRestart pins the honest MPK semantics: a dead domain
// partition is not restartable (it shares the host's fate), so RestartDead
// must skip it rather than rebuild the shared address space.
func TestDomainTierNoRestart(t *testing.T) {
	k, rt := setup(t, core.ConfigForIsolation(isolation.ERIM()))
	log := &attack.Log{}
	rt.OnExploit = log.Handler()
	k.FS.WriteFile("/evil.img", attack.DoS("CVE-2017-14136"))
	if _, _, err := rt.Call("cv.imread", framework.Str("/evil.img")); err == nil {
		t.Fatal("DoS exploit should fail the call")
	}
	if rt.Host.Alive() {
		t.Fatal("DoS in a domain must kill the host")
	}
	if err := rt.RestartDead(); err != nil {
		t.Fatalf("RestartDead must skip domain partitions, got %v", err)
	}
	if rt.Host.Alive() {
		t.Fatal("RestartDead must not resurrect the shared process")
	}
	// A later call on the dead domain reports a crash-class error.
	if _, _, err := rt.Call("cv.imread", framework.Str("/evil.img")); err == nil {
		t.Fatal("calls into a dead domain must fail")
	}
}

// TestHostTierNoContainment pins the frontier's bottom end: under the
// "none" policy everything runs in the host process, so the same corruption
// exploit lands — and no agent endpoints, domain switches, or syscall
// filters stand in the way.
func TestHostTierNoContainment(t *testing.T) {
	k, rt := setup(t, core.ConfigForIsolation(isolation.None()))
	log := &attack.Log{}
	rt.OnExploit = log.Handler()
	crit, err := rt.Host.Space().Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Host.Space().Store(crit.Base, []byte("sensitive")); err != nil {
		t.Fatal(err)
	}
	rt.RegisterCritical(crit)
	k.FS.WriteFile("/evil.img", attack.Corrupt("CVE-2017-12606", crit.Base, []byte("OWNED")))
	if _, _, err := rt.Call("cv.imread", framework.Str("/evil.img")); err == nil {
		t.Fatal("exploited call should fail")
	}
	data, _ := rt.Host.Space().Load(crit.Base, 5)
	if string(data) != "OWNED" {
		t.Fatalf("critical data = %q; the host tier must not block the write", data)
	}
	if n := rt.EndpointCount(); n != 1 {
		t.Fatalf("endpoints = %d, want 1 (host only; no partitions spawned)", n)
	}
	if s := rt.Metrics.Snapshot(); s.DomainSwitches != 0 {
		t.Fatalf("host tier charged %d domain switches", s.DomainSwitches)
	}
}

// TestConfigForIsolation pins the config derivation: the none policy strips
// every mechanism (no syscall filters, LDC semantics kept); policies with a
// process tier keep syscall restriction; domain-only policies drop it.
func TestConfigForIsolation(t *testing.T) {
	none := core.ConfigForIsolation(isolation.None())
	if none.RestrictSyscalls || !none.LazyDataCopy {
		t.Fatalf("none config = %+v", none)
	}
	paper := core.ConfigForIsolation(isolation.Paper())
	want := core.Default()
	want.Isolation = paper.Isolation
	if !reflect.DeepEqual(paper, want) {
		t.Fatalf("paper config deviates from Default:\n%+v\nvs\n%+v", paper, want)
	}
	if erim := core.ConfigForIsolation(isolation.ERIM()); erim.RestrictSyscalls {
		t.Fatal("domain-only policy must not claim per-process seccomp")
	}
}

// TestBlockedByMatrix pins the per-tier blocked semantics the frontier
// report is built on.
func TestBlockedByMatrix(t *testing.T) {
	cases := []struct {
		class attack.VulnClass
		tier  isolation.Tier
		want  bool
	}{
		{attack.ClassMemWrite, isolation.TierProcess, true},
		{attack.ClassMemWrite, isolation.TierDomain, true},
		{attack.ClassMemWrite, isolation.TierHost, false},
		{attack.ClassMemRead, isolation.TierDomain, true},
		{attack.ClassDoS, isolation.TierProcess, true},
		{attack.ClassDoS, isolation.TierDomain, false},
		{attack.ClassRCE, isolation.TierDomain, false},
		{attack.ClassRCE, isolation.TierProcess, true},
		{attack.ClassFileRead, isolation.TierDomain, false},
	}
	for _, c := range cases {
		if got := c.class.BlockedBy(c.tier); got != c.want {
			t.Errorf("%v blocked by %v = %v, want %v", c.class, c.tier, got, c.want)
		}
	}
}

// TestDomainPartitionsHaveOwnEndpoints pins the topology of each preset:
// domain partitions get their own endpoint (distinct PID, distinct key) even
// though they share the host address space, while host-tier partitions alias
// the existing host endpoint.
func TestDomainPartitionsHaveOwnEndpoints(t *testing.T) {
	_, erim := setup(t, core.ConfigForIsolation(isolation.ERIM()))
	if n := erim.EndpointCount(); n != 5 {
		t.Fatalf("erim endpoints = %d, want host + 4 domain partitions", n)
	}
	_, tiered := setup(t, core.ConfigForIsolation(isolation.Tiered()))
	if n := tiered.EndpointCount(); n != 5 {
		t.Fatalf("tiered endpoints = %d, want host + 4 partitions", n)
	}
}
