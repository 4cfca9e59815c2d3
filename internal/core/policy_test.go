package core_test

import (
	"cmp"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/baseline"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
)

// agentPoliciesGolden holds one line per agent of every configuration
// TestAgentPoliciesGolden builds, in configuration and partition order.
const agentPoliciesGolden = "testdata/agent_policies.golden"

// namedConfig is a runtime configuration, the categorization it runs
// over and the name its golden lines carry.
type namedConfig struct {
	name string
	cat  *analysis.Categorization
	cfg  core.Config
}

// policyConfigs are the configurations the golden pins: the paper's
// default, every isolation preset that runs a partition as a process, the
// OMR application's own APIs, two Fig. 4 splits over them, the first of
// which homes several types in one partition, and the OMR APIs again
// with cv.cvtColor detected type-neutral, whose syscalls every agent then
// allows.
func policyConfigs(reg *framework.Registry, cat *analysis.Categorization) []namedConfig {
	out := []namedConfig{{"default", cat, core.Default()}}
	for _, pol := range isolation.Presets() {
		if cfg := core.ConfigForIsolation(pol); cfg.RestrictSyscalls {
			out = append(out, namedConfig{"isolation=" + pol.Name, cat, cfg})
		}
	}
	omr := core.Default()
	omr.AppAPIs = baseline.OMRAPIs()
	random := omr
	random.Partitions, random.PartitionOf = 3, baseline.RandomPartitionOf(baseline.OMRAPIs(), 3, 3*777)
	split := omr
	split.Partitions, split.PartitionOf = 5, baseline.SplitHotPairPartitionOf(cat)
	a := analysis.New(reg, nil)
	neutral := a.Categorize()
	a.DetectNeutral(neutral, [][]string{{"cv.imread", "cv.cvtColor", "cv.imshow"}})
	return append(out, namedConfig{"omr", cat, omr}, namedConfig{"fig4-random3", cat, random},
		namedConfig{"fig4-split5", cat, split}, namedConfig{"omr-neutral", neutral, omr})
}

// policyLines renders each agent of rt as its golden line: partition id,
// name, tier, then the sorted and deduplicated allowed and init-only
// syscalls and fd labels per call. A partition homing several types
// installs the union of their policies, which may repeat a call; the
// line reads the set.
func policyLines(config string, rt *core.Runtime) []string {
	var out []string
	for _, a := range rt.AgentPolicies() {
		line := fmt.Sprintf("%s p%d %q tier=%s", config, a.ID, a.Name, a.Tier)
		if a.Policy == nil {
			out = append(out, line+" policy=none")
			continue
		}
		calls := make([]kernel.Sysno, 0, len(a.Policy.FDLabels))
		for call := range a.Policy.FDLabels {
			calls = append(calls, call)
		}
		slices.Sort(calls)
		var fd []string
		for _, call := range calls {
			fd = append(fd, fmt.Sprintf("%s:%v", call, sortedSet(a.Policy.FDLabels[call])))
		}
		out = append(out, fmt.Sprintf("%s allowed=%v init=%v fd=%v", line,
			sortedSet(a.Policy.Allowed), sortedSet(a.Policy.InitOnly), fd))
	}
	return out
}

// sortedSet returns a sorted, deduplicated copy of s; s itself may be a
// policy's shared slice and is left as it is.
func sortedSet[E cmp.Ordered](s []E) []E {
	c := slices.Clone(s)
	slices.Sort(c)
	return slices.Compact(c)
}

// TestAgentPoliciesGolden pins the syscall policy every agent installs,
// under every configuration that restricts syscalls, and checks that a
// replacement shard a factory builds installs what the shard it replaces
// did. A change to how policies are derived or shared that moves one
// syscall of one agent fails here.
func TestAgentPoliciesGolden(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	var got []string
	for _, c := range policyConfigs(reg, cat) {
		rt, err := core.New(kernel.New(), reg, c.cat, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, policyLines(c.name, rt)...)
		rt.Close()
	}

	f := core.ChaosShards(reg, cat, core.ChaosConfig(nil), noChaos)
	var gens [2][]string
	for gen := range gens {
		sh, err := f(0)
		if err != nil {
			t.Fatal(err)
		}
		gens[gen] = policyLines("chaos", sh.Rt)
		sh.Rt.Close()
	}
	if !slices.Equal(gens[0], gens[1]) {
		t.Errorf("replacement installs other policies than its original:\n gen 0 %q\n gen 1 %q", gens[0], gens[1])
	}
	got = append(got, gens[0]...)

	raw, err := os.ReadFile(agentPoliciesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b map[framework.APIType]*analysis.AgentPolicy) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// noChaos is a per-shard chaos plan whose every probability is 0.
func noChaos(id, gen int) chaos.Plan { return chaos.Scaled(1, 0).ForShard(id) }

// TestFactoryShardsShareDerivedPolicies checks that a shard factory
// derives its syscall policies once: every shard and replacement it
// builds holds its first shard's policy map, and each single-type agent
// installs its type's derived policy itself. A configuration switch that
// leaves AppAPIs as they were, as the defense controller's isolation
// re-binds do, derives nothing.
func TestFactoryShardsShareDerivedPolicies(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	var rebinds int
	factories := map[string]core.ShardFactory{
		"protected": core.ProtectedShards(reg, cat, core.Default()),
		"chaos":     core.ChaosShards(reg, cat, core.ChaosConfig(nil), noChaos),
		"dynamic": core.DynamicShards(reg, cat, func() core.Config {
			rebinds++
			return core.ConfigForIsolation([]*isolation.Policy{isolation.Paper(), isolation.Tiered()}[rebinds%2])
		}, nil),
	}
	for name, f := range factories {
		var first map[framework.APIType]*analysis.AgentPolicy
		for _, id := range []int{0, 1, 2, 0, 1, 0} { // shards 0–2, then replacements
			sh, err := f(id)
			if err != nil {
				t.Fatal(err)
			}
			got := sh.Rt.DerivedPolicies()
			if first == nil {
				first = got
			}
			if got == nil || !sameMap(got, first) {
				t.Errorf("%s: shard %d holds policies of its own, want its factory's first", name, id)
			}
			derived := make(map[*analysis.AgentPolicy]bool)
			for _, p := range got {
				derived[p] = true
			}
			for _, a := range sh.Rt.AgentPolicies() {
				if a.Policy != nil && !derived[a.Policy] {
					t.Errorf("%s: shard %d agent %s installs a copy of its type's policy", name, id, a.Name)
				}
			}
			sh.Rt.Close()
		}
	}
}

// TestNewDerivesItsOwnPolicies checks that a runtime built by core.New,
// outside any factory, derives policies of its own, and none when it
// restricts no syscalls.
func TestNewDerivesItsOwnPolicies(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	var got []map[framework.APIType]*analysis.AgentPolicy
	for range 2 {
		rt, err := core.New(kernel.New(), reg, cat, core.Default())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rt.DerivedPolicies())
		rt.Close()
	}
	if got[0] == nil || sameMap(got[0], got[1]) {
		t.Error("two core.New runtimes share one policy map")
	}
	rt, err := core.New(kernel.New(), reg, cat, core.Config{LazyDataCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.DerivedPolicies() != nil {
		t.Error("a runtime that restricts no syscalls derived policies")
	}
}

// TestDynamicShardsDeriveAgainForOtherAppAPIs checks that a factory
// derives again when a configuration narrows policies to other APIs, and
// that a nil AppAPIs (the whole registry) and an empty one (no API) are
// two derivations.
func TestDynamicShardsDeriveAgainForOtherAppAPIs(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	appAPIs := [][]string{nil, baseline.OMRAPIs(), baseline.OMRAPIs(), {}, nil}
	next := 0
	f := core.DynamicShards(reg, cat, func() core.Config {
		cfg := core.Default()
		cfg.AppAPIs = appAPIs[next]
		next++
		return cfg
	}, nil)
	var got []map[framework.APIType]*analysis.AgentPolicy
	for range appAPIs {
		sh, err := f(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, sh.Rt.DerivedPolicies())
		sh.Rt.Close()
	}
	for i, same := range []bool{false, true, false, false} {
		if sameMap(got[i], got[i+1]) != same {
			t.Errorf("shards %d and %d (AppAPIs %v, %v) share policies: %t, want %t", i, i+1, appAPIs[i], appAPIs[i+1], !same, same)
		}
	}
	if n := len(got[3][framework.TypeLoading].Allowed); n != 0 {
		t.Errorf("empty AppAPIs derived %d loading syscalls, want 0", n)
	}
}

// TestConcurrentShardBuildsDeriveOnce builds eight shards of one factory
// at once, as an executor's fan-out builds replacements: one derivation
// serves all eight.
func TestConcurrentShardBuildsDeriveOnce(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	f := core.ChaosShards(reg, cat, core.ChaosConfig(nil), noChaos)
	shards := make([]*core.Shard, 8)
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[i], errs[i] = f(i)
		}()
	}
	wg.Wait()
	for i, sh := range shards {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		defer sh.Rt.Close()
		if p := sh.Rt.DerivedPolicies(); p == nil || !sameMap(p, shards[0].Rt.DerivedPolicies()) {
			t.Errorf("shard %d derived policies of its own", i)
		}
	}
}
