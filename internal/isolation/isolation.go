// Package isolation is the per-API-type policy engine for the tiered
// isolation mechanisms: it decides, for every framework API type, which
// isolation tier hosts the partition that homes it. The tiers span the
// compartmentalization design space the related work maps — FreePart's
// process+IPC partitions at one end (strongest containment, highest cost),
// ERIM-style MPK protection-key domains in the middle (~100-cycle switch,
// no IPC, no per-call copy; USENIX Security '19), and plain in-host
// execution at the other end (zero cost, blocks nothing).
package isolation

import (
	"sort"

	"freepart.dev/freepart/internal/framework"
)

// Tier is one isolation mechanism, ordered by containment strength:
// comparing tiers with < / > compares how much a compromised partition is
// contained, so "strongest tier among a partition's homed types" is a max.
type Tier uint8

// Isolation tiers, weakest first.
const (
	// TierHost runs the partition's APIs in the host process itself — the
	// existing Direct/degraded in-host path. No switch cost, no copies, no
	// containment: an exploited API owns the service.
	TierHost Tier = iota
	// TierDomain runs the partition as an ERIM-style MPK domain: same
	// address space as the host, partition state tagged with a protection
	// key, a WRPKRU-style PKRU rewrite charged on every entry and exit.
	// Cross-domain reads and writes fault deterministically, but the domain
	// shares the host's process fate: a crash (DoS) or in-process
	// privilege escalation (no per-domain seccomp) is not contained.
	TierDomain
	// TierProcess is the paper's mechanism: a separate kernel process with
	// its own address space and seccomp filter, reached over per-call IPC.
	// Strongest containment, and the only tier that survives a partition
	// crash (the supervisor restarts the dead process).
	TierProcess
)

// String names the tier as the policy syntax does.
func (t Tier) String() string {
	switch t {
	case TierHost:
		return "host"
	case TierDomain:
		return "domain"
	case TierProcess:
		return "process"
	default:
		return "unknown"
	}
}

// Policy maps framework API types to isolation tiers. The zero value (and
// a nil *Policy) behaves as the paper's all-process configuration, so a
// runtime built without a policy is bit-identical to the pre-policy path.
type Policy struct {
	// Name identifies the policy in reports and flags (e.g. "tiered").
	Name string
	// Tiers assigns a tier per API type; absent types default to
	// TierProcess (the strongest mechanism is the safe fallback).
	Tiers map[framework.APIType]Tier
}

// TierOf returns the tier hosting the partition that homes type t.
func (p *Policy) TierOf(t framework.APIType) Tier {
	if p == nil {
		return TierProcess
	}
	if tier, ok := p.Tiers[t]; ok {
		return tier
	}
	return TierProcess
}

// HasTier reports whether any API type is assigned the tier (absent types
// count as TierProcess).
func (p *Policy) HasTier(tier Tier) bool {
	if p == nil {
		return tier == TierProcess
	}
	for _, t := range framework.ConcreteTypes() {
		if p.TierOf(t) == tier {
			return true
		}
	}
	return false
}

// Clone returns an independent deep copy of the policy. A nil policy
// clones to nil (the all-process default needs no storage to stay the
// all-process default).
func (p *Policy) Clone() *Policy {
	if p == nil {
		return nil
	}
	tiers := make(map[framework.APIType]Tier, len(p.Tiers))
	for t, tier := range p.Tiers {
		tiers[t] = tier
	}
	return &Policy{Name: p.Name, Tiers: tiers}
}

// WithTier returns a copy of the policy with API type t reassigned to
// tier. The receiver is never mutated, so a caller holding the original
// (the annealing floor, a replay baseline) keeps exactly what it had.
// On a nil policy the copy starts from the all-process default over the
// concrete types, so TierOf stays consistent for every other type.
func (p *Policy) WithTier(t framework.APIType, tier Tier) *Policy {
	var out *Policy
	if p == nil {
		out = uniform("", TierProcess)
	} else {
		out = p.Clone()
		if out.Tiers == nil {
			out.Tiers = make(map[framework.APIType]Tier)
		}
	}
	out.Tiers[t] = tier
	return out
}

// Equal reports whether two policies assign the same tier to every
// concrete API type. Names are ignored: equality is about effective
// isolation, and absent assignments compare as TierProcess exactly as
// TierOf resolves them — so an escalate-then-anneal round trip that
// restores every assignment compares equal to the original policy.
func (p *Policy) Equal(q *Policy) bool {
	for _, t := range framework.ConcreteTypes() {
		if p.TierOf(t) != q.TierOf(t) {
			return false
		}
	}
	return true
}

// uniform builds a policy assigning one tier to every concrete API type.
func uniform(name string, tier Tier) *Policy {
	tiers := make(map[framework.APIType]Tier)
	for _, t := range framework.ConcreteTypes() {
		tiers[t] = tier
	}
	return &Policy{Name: name, Tiers: tiers}
}

// Paper is the reproduction's default: every partition a kernel process
// behind per-call IPC, exactly the pre-policy path (byte-equal replay).
func Paper() *Policy { return uniform("paper", TierProcess) }

// ERIM runs every partition as an MPK protection-key domain: no IPC, no
// per-call copy, a WRPKRU-style switch per call — and no containment of
// DoS or in-process escalation.
func ERIM() *Policy { return uniform("erim", TierDomain) }

// Tiered is the mixed point on the frontier: the risky input-facing types
// (loading and processing host 17 of the 18 evaluation CVEs) keep full
// process isolation, while visualizing and storing — one historical CVE
// between them — run as cheap MPK domains.
func Tiered() *Policy {
	return &Policy{Name: "tiered", Tiers: map[framework.APIType]Tier{
		framework.TypeLoading:     TierProcess,
		framework.TypeProcessing:  TierProcess,
		framework.TypeVisualizing: TierDomain,
		framework.TypeStoring:     TierDomain,
	}}
}

// None runs everything in the host process: the unprotected baseline the
// overhead column is measured against.
func None() *Policy { return uniform("none", TierHost) }

// Presets returns the built-in policies in frontier order (strongest
// first).
func Presets() []*Policy {
	return []*Policy{Paper(), Tiered(), ERIM(), None()}
}

// ByName resolves a preset by its flag name.
func ByName(name string) (*Policy, bool) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

// Names lists the preset names, sorted (for flag validation messages).
func Names() []string {
	ps := Presets()
	out := make([]string, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}
