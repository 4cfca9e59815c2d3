package framework

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"freepart.dev/freepart/internal/kernel"
)

// Impl is a framework API implementation. It executes inside the process
// carried by ctx; all of its memory and I/O flows through the simulation.
type Impl func(ctx *Ctx, args []Value) ([]Value, error)

// API is the metadata + implementation of one framework function.
type API struct {
	// Name is the fully qualified API name, e.g. "cv.imread".
	Name string
	// Framework is the owning framework, e.g. "simcv".
	Framework string
	// TrueType is the ground-truth categorization, used to score the
	// analyzer (the paper validates categorization manually, §5).
	TrueType APIType
	// Neutral marks type-neutral APIs whose home partition follows the
	// calling context (§4.2.2).
	Neutral bool
	// StaticOps are the data-flow operations visible to static analysis.
	StaticOps []Op
	// DynamicOnly marks APIs whose flows static analysis misses (indirect
	// calls, dynamic dispatch); their ops surface only in traces — the gap
	// the hybrid analysis exists to close (§4.2.2).
	DynamicOnly bool
	// Syscalls lists the system calls the API requires (for Table 7 /
	// Fig. 12 derivation). FDLabels gives per-syscall fd-scope labels.
	Syscalls []kernel.Sysno
	// FDLabels maps fd-scoped syscalls to the resource labels they touch.
	FDLabels map[kernel.Sysno][]string
	// InitSyscalls are needed only during first execution (§4.4.1:
	// mprotect/connect during initialization).
	InitSyscalls []kernel.Sysno
	// Stateful marks APIs that keep internal state across calls (§A.2.4).
	Stateful bool
	// SharedState marks stateful APIs whose state is shared with other
	// APIs (the second, harder class of §A.6).
	SharedState bool
	// Intensity scales compute cost (1 = one linear pass over the input).
	Intensity float64
	// CVEs lists vulnerability ids residing in this API.
	CVEs []string
	// Impl executes the API.
	Impl Impl
}

// HasCVE reports whether the API contains the given vulnerability.
func (a *API) HasCVE(cve string) bool {
	for _, c := range a.CVEs {
		if c == cve {
			return true
		}
	}
	return false
}

// Vulnerable reports whether the API has any known CVE.
func (a *API) Vulnerable() bool { return len(a.CVEs) > 0 }

// Exec runs the API inside ctx, charging fixed dispatch cost and setting
// the context's current-API name for tracing.
func (a *API) Exec(ctx *Ctx, args []Value) ([]Value, error) {
	if a.Impl == nil {
		return nil, fmt.Errorf("framework: %s has no implementation", a.Name)
	}
	if !ctx.P.Alive() {
		return nil, fmt.Errorf("%w: cannot run %s", kernel.ErrProcessDead, a.Name)
	}
	prev := ctx.api
	ctx.api = a.Name
	defer func() { ctx.api = prev }()
	ctx.K.Clock.Advance(ctx.K.Cost.APIFixed)
	return a.Impl(ctx, args)
}

// Registry holds a set of APIs, keyed by name and kept in name order as
// they register, so a walk over all of them sorts nothing. Safe for
// concurrent reads after construction.
type Registry struct {
	mu     sync.RWMutex
	apis   map[string]*API
	sorted []*API // apis in name order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{apis: make(map[string]*API)}
}

// Register adds an API; duplicate names panic (programmer error in a
// framework definition).
func (r *Registry) Register(a *API) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.apis[a.Name]; dup {
		panic(fmt.Sprintf("framework: duplicate API %s", a.Name))
	}
	if a.Intensity == 0 {
		a.Intensity = 1
	}
	r.apis[a.Name] = a
	i, _ := slices.BinarySearchFunc(r.sorted, a.Name, func(x *API, name string) int { return strings.Compare(x.Name, name) })
	r.sorted = slices.Insert(r.sorted, i, a)
}

// Get looks up an API by name.
func (r *Registry) Get(name string) (*API, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.apis[name]
	return a, ok
}

// name returns the registered name that reads as raw, or a new string of
// raw when r is nil or holds no such API.
func (r *Registry) name(raw []byte) string {
	if r != nil {
		r.mu.RLock()
		a, ok := r.apis[string(raw)]
		r.mu.RUnlock()
		if ok {
			return a.Name
		}
	}
	return string(raw)
}

// MustGet looks up an API, panicking if absent (for test/app construction).
func (r *Registry) MustGet(name string) *API {
	a, ok := r.Get(name)
	if !ok {
		panic(fmt.Sprintf("framework: unknown API %s", name))
	}
	return a
}

// Len reports the number of registered APIs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.apis)
}

// All returns every API sorted by name, in a slice of the caller's own.
func (r *Registry) All() []*API {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append(make([]*API, 0, len(r.sorted)), r.sorted...)
}

// ByFramework returns the APIs of one framework, sorted by name.
func (r *Registry) ByFramework(fw string) []*API {
	var out []*API
	for _, a := range r.All() {
		if a.Framework == fw {
			out = append(out, a)
		}
	}
	return out
}

// Merge copies every API from other into r.
func (r *Registry) Merge(other *Registry) {
	for _, a := range other.All() {
		r.Register(a)
	}
}

// Frameworks returns the distinct framework names present, sorted.
func (r *Registry) Frameworks() []string {
	seen := make(map[string]bool)
	for _, a := range r.All() {
		seen[a.Framework] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
