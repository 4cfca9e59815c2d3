package analysis

import (
	"cmp"
	"slices"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
)

// AgentPolicy is the derived seccomp policy for one agent type: the union
// of syscalls required by every API assigned to it (Fig. 12-(b)), fd-scope
// restrictions for the dangerous calls, and the initialization-only set
// that is permitted before lockdown (§4.4.1).
//
// A derived policy is read-only: the runtime installs one in every agent of
// its type, in every shard its factory builds, and Apply copies what it
// reads into each agent's filter.
type AgentPolicy struct {
	Type     framework.APIType
	Allowed  []kernel.Sysno
	FDLabels map[kernel.Sysno][]string
	InitOnly []kernel.Sysno
}

// DeriveSyscallPolicy computes the per-agent-type allowlists for the APIs
// an application actually uses (apiNames); pass nil to cover the whole
// registry. Neutral APIs contribute to every agent type they may run in.
func (a *Analyzer) DeriveSyscallPolicy(c *Categorization, apiNames []string) map[framework.APIType]*AgentPolicy {
	policies := make(map[framework.APIType]*AgentPolicy)
	for _, t := range framework.ConcreteTypes() {
		policies[t] = &AgentPolicy{Type: t, FDLabels: make(map[kernel.Sysno][]string)}
	}

	apis := a.Registry.All()
	if apiNames != nil {
		apis = apis[:0]
		for _, name := range apiNames {
			if api, ok := a.Registry.Get(name); ok {
				apis = append(apis, api)
			}
		}
	}

	add := func(p *AgentPolicy, api *framework.API) {
		p.Allowed = append(p.Allowed, api.Syscalls...)
		p.InitOnly = append(p.InitOnly, api.InitSyscalls...)
		for call, labels := range api.FDLabels {
			p.FDLabels[call] = append(p.FDLabels[call], labels...)
		}
	}

	for _, api := range apis {
		if c.Neutral[api.Name] {
			// A neutral API may execute in any agent; every agent must
			// therefore allow its (memory-only) syscalls.
			for _, p := range policies {
				add(p, api)
			}
			continue
		}
		t := c.TypeOf(api.Name)
		if p, ok := policies[t]; ok {
			add(p, api)
		}
	}

	for _, p := range policies {
		p.Allowed = sortedSet(p.Allowed)
		p.InitOnly = sortedSet(p.InitOnly)
		for call, labels := range p.FDLabels {
			p.FDLabels[call] = sortedSet(labels)
		}
	}
	return policies
}

// Apply configures a process filter from the policy: allow the union,
// restrict fd-scoped calls to their labels, then install it. The filter
// keeps copies, never the policy's slices. Init-only
// syscalls are NOT allowed — callers must run each API's first execution
// before calling Apply (§4.4.1: "FreePart first executes all the framework
// APIs and then restricts them afterwards").
func (p *AgentPolicy) Apply(f *kernel.Filter) error {
	if err := f.Allow(p.Allowed...); err != nil {
		return err
	}
	for call, labels := range p.FDLabels {
		if err := f.RestrictFD(call, labels...); err != nil {
			return err
		}
	}
	f.Install()
	return nil
}

// sortedSet sorts in and drops its repeats, in place.
func sortedSet[E cmp.Ordered](in []E) []E {
	slices.Sort(in)
	return slices.Compact(in)
}

// UsageCount is one application's API usage for one type (a Table 6 cell
// pair: unique APIs and total call instances).
type UsageCount struct {
	Unique int
	Total  int
}

// UsageByType summarizes a call sequence per API type (Table 6 rows).
func UsageByType(c *Categorization, calls []string) map[framework.APIType]UsageCount {
	uniq := make(map[framework.APIType]map[string]bool)
	out := make(map[framework.APIType]UsageCount)
	for _, name := range calls {
		t := c.TypeOf(name)
		if c.Neutral[name] {
			t = framework.TypeProcessing // neutral APIs tabulate with DP
		}
		if uniq[t] == nil {
			uniq[t] = make(map[string]bool)
		}
		uniq[t][name] = true
		uc := out[t]
		uc.Total++
		uc.Unique = len(uniq[t])
		out[t] = uc
	}
	return out
}
