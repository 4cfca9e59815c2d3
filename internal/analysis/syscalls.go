package analysis

import (
	"sort"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
)

// AgentPolicy is the derived seccomp policy for one agent type: the union
// of syscalls required by every API assigned to it (Fig. 12-(b)), fd-scope
// restrictions for the dangerous calls, and the initialization-only set
// that is permitted before lockdown (§4.4.1).
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
		p.Allowed = dedupSyscalls(p.Allowed)
		p.InitOnly = dedupSyscalls(p.InitOnly)
		for call := range p.FDLabels {
			p.FDLabels[call] = dedupStrings(p.FDLabels[call])
		}
	}
	return policies
}

// Apply configures a process filter from the policy: allow the union,
// restrict fd-scoped calls to their labels, then install it. Init-only
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

// dedupSyscalls sorts and deduplicates.
func dedupSyscalls(in []kernel.Sysno) []kernel.Sysno {
	seen := make(map[kernel.Sysno]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dedupStrings sorts and deduplicates.
func dedupStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
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
