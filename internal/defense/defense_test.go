package defense

import (
	"errors"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/isolation"
)

const cleanW = cleanWindow

// lattice builds a pool-less controller (nil executor: Tick re-binds
// nothing) over the erim floor.
func lattice() *Controller {
	return New(nil)
}

// dosSighting is a DoS sighting on the loading type — the class whose
// required tier (process) exceeds the erim floor (domain), so it always
// escalates.
func dosSighting(tenant int) sighting {
	return sighting{
		shard: 0, cve: "CVE-2017-14136", class: attack.ClassDoS,
		api: framework.TypeLoading, tier: isolation.TierDomain,
		signal: "agent-crash", tenant: tenant,
	}
}

func TestDefaults(t *testing.T) {
	c := New(nil)
	if !c.Policy().Equal(isolation.ERIM()) {
		t.Fatal("default floor must be erim")
	}
	if c.Policy().Name != "adaptive" {
		t.Fatalf("adaptive policy named %q", c.Policy().Name)
	}
}

func TestEscalationLattice(t *testing.T) {
	c := lattice()
	c.note(dosSighting(0))
	c.Tick(0)
	if got := c.Policy().TierOf(framework.TypeLoading); got != isolation.TierProcess {
		t.Fatalf("loading tier after DoS sighting = %v, want process", got)
	}
	for _, ty := range []framework.APIType{framework.TypeProcessing, framework.TypeVisualizing, framework.TypeStoring} {
		if got := c.Policy().TierOf(ty); got != isolation.TierDomain {
			t.Fatalf("unsighted type %s moved to %v", ty.Long(), got)
		}
	}
	st := c.Stats()
	if st.Sightings != 1 || st.Escalations != 1 {
		t.Fatalf("stats = %+v, want 1 sighting 1 escalation", st)
	}
	// The floor is never mutated by escalation.
	if !c.Floor().Equal(isolation.ERIM()) {
		t.Fatal("escalation mutated the floor")
	}
}

func TestScreenArmsPerClass(t *testing.T) {
	c := lattice()
	if err := c.Screen("CVE-2017-14136"); err != nil {
		t.Fatalf("screen before any sighting = %v, want pass", err)
	}
	c.note(dosSighting(0))
	c.Tick(0)
	// Any CVE of the sighted class is now refused — including ones the
	// controller never saw directly.
	for _, cve := range []string{"CVE-2017-14136", "CVE-2018-5269"} {
		if err := c.Screen(cve); !errors.Is(err, core.ErrAttackBlocked) {
			t.Fatalf("screen %s = %v, want ErrAttackBlocked", cve, err)
		}
	}
	// Other classes still pass, as do ids outside the evaluation set.
	if err := c.Screen("CVE-2017-17760"); err != nil {
		t.Fatalf("screen of unsighted RCE class = %v, want pass", err)
	}
	if err := c.Screen("CVE-0000-0000"); err != nil {
		t.Fatalf("screen of unknown id = %v, want pass", err)
	}
	if got := c.Stats().ScreenHits; got != 2 {
		t.Fatalf("screen hits = %d, want 2", got)
	}
	// The buffered hits land in the decision log at the next Tick.
	c.Tick(1)
	if log := c.Events().String(); !strings.Contains(log, "screen CVE-2018-5269") {
		t.Fatalf("decision log missing screen events:\n%s", log)
	}
}

func TestAnnealAndHysteresis(t *testing.T) {
	c := lattice()
	c.note(dosSighting(0))
	c.Tick(0)

	// One tier per full clean window: too early does nothing.
	c.Tick(cleanW - 1)
	if got := c.Policy().TierOf(framework.TypeLoading); got != isolation.TierProcess {
		t.Fatalf("annealed %v before the clean window elapsed", got)
	}
	c.Tick(cleanW)
	if got := c.Policy().TierOf(framework.TypeLoading); got != isolation.TierDomain {
		t.Fatalf("tier after clean window = %v, want domain (back at floor)", got)
	}
	if !c.Policy().Equal(c.Floor()) {
		t.Fatal("policy must be back at the floor")
	}

	// Re-escalation doubles the type's clean window (hysteresis): the
	// original window is no longer enough to anneal.
	c.note(dosSighting(0))
	c.Tick(cleanW + 1)
	if got := c.Stats().Escalations; got != 2 {
		t.Fatalf("escalations = %d, want 2", got)
	}
	c.Tick(cleanW + 1 + cleanW)
	if got := c.Policy().TierOf(framework.TypeLoading); got != isolation.TierProcess {
		t.Fatal("flapping type annealed on the original window despite hysteresis")
	}
	c.Tick(cleanW + 1 + 2*cleanW)
	if got := c.Policy().TierOf(framework.TypeLoading); got != isolation.TierDomain {
		t.Fatalf("tier after doubled window = %v, want domain", got)
	}
	if got := c.Stats().Anneals; got != 2 {
		t.Fatalf("anneals = %d, want 2", got)
	}
}

func TestQuarantineAndRelease(t *testing.T) {
	c := lattice()
	gate := c.Gate()
	if err := gate(42, 0); err != nil {
		t.Fatalf("gate before sighting = %v, want admit", err)
	}
	c.note(dosSighting(42))
	c.Tick(0)
	if err := gate(42, 0); !errors.Is(err, core.ErrQuarantined) {
		t.Fatalf("gate for quarantined tenant = %v, want ErrQuarantined", err)
	}
	if err := gate(7, 0); err != nil {
		t.Fatalf("gate for innocent tenant = %v, want admit", err)
	}
	c.Tick(cleanW - 1)
	if err := gate(42, 0); !errors.Is(err, core.ErrQuarantined) {
		t.Fatal("quarantine released before its window elapsed")
	}
	c.Tick(cleanW)
	if err := gate(42, 0); err != nil {
		t.Fatalf("gate after release = %v, want admit", err)
	}
	st := c.Stats()
	if st.Quarantines != 1 || st.Releases != 1 {
		t.Fatalf("stats = %+v, want 1 quarantine 1 release", st)
	}
}

func TestTenantZeroNeverQuarantined(t *testing.T) {
	// Tenant 0 is the unattributable default; gating it would down the
	// whole service — exactly what a DoS attacker wants.
	c := lattice()
	c.note(dosSighting(0))
	c.Tick(0)
	if err := c.Gate()(0, 0); err != nil {
		t.Fatalf("tenant 0 gated: %v", err)
	}
	if got := c.Stats().Quarantines; got != 0 {
		t.Fatalf("quarantines = %d, want 0", got)
	}
}

func TestNilExecutorTickAndDeterminism(t *testing.T) {
	// A pool-less controller never re-binds, and two controllers fed the
	// same sightings at the same barrier times emit byte-equal logs.
	run := func() *Controller {
		c := lattice()
		c.note(dosSighting(9))
		c.note(sighting{
			shard: 1, cve: "CVE-2020-10378", class: attack.ClassMemRead,
			api: framework.TypeLoading, tier: isolation.TierDomain,
			signal: "exploit", tenant: 9,
		})
		c.Tick(0)
		c.Tick(cleanW)
		c.Tick(2 * cleanW)
		return c
	}
	a, b := run(), run()
	if a.Stats().Rebinds != 0 {
		t.Fatalf("nil-executor controller re-bound %d shards", a.Stats().Rebinds)
	}
	log := a.Events().String()
	if blog := b.Events().String(); log != blog {
		t.Fatalf("replayed logs diverged:\n%s\nvs\n%s", log, blog)
	}
	if log == "" {
		t.Fatal("empty decision log")
	}
	// Sightings drain in (shard, seq) order regardless of append order.
	if !strings.Contains(log, "shard 0 seq 0") || !strings.Contains(log, "shard 1 seq 0") {
		t.Fatalf("sighting ordering broken:\n%s", log)
	}
}
