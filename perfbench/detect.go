package main

import (
	"fmt"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/vclock"
)

// detect-serve: the stateless read path of small protected calls. Requests
// are served one per DetectionServer.Serve call by closed-loop callers, one
// per shard and at most one per CPU, on 2 protected shards under the paper policy (every
// partition a process behind IPC). Virtual time is open-loop: each request
// carries the 60µs arrival stamp GenDetectionRequests gives it.
const (
	detectShards   = 2
	detectRequests = 2000 // requests per pass: the fixed run length
)

type detectRef struct {
	objects []int
	service vclock.Duration
}

func newDetect(seed int64) (workload, error) {
	// The reference serves the same stream on unprotected shards.
	p, err := setupDetect(seed, nil, core.DirectShards(all.Registry()))
	if err != nil {
		return workload{}, err
	}
	p.run(nil)
	defer p.close()
	ref := &detectRef{objects: make([]int, len(p.results))}
	for i, r := range p.results {
		if r.Err != nil {
			return workload{}, fmt.Errorf("detect reference request %d: %w", i, r.Err)
		}
		ref.objects[i] = r.Objects
	}
	ref.service = executorVirt(p.ex).Service
	return workload{op: "request", setup: func(t *tracer) (pass, error) {
		reg := t.registry(all.Registry())
		cat := analysis.New(reg, nil).Categorize()
		p, err := setupDetect(seed, t, core.ProtectedShards(reg, cat, core.Default()))
		if err != nil {
			return nil, err
		}
		p.ref = ref
		return p, nil
	}}, nil
}

type detectPass struct {
	ex      *core.Executor
	srv     *apps.DetectionServer
	reqs    []apps.DetectionRequest
	results []apps.DetectionResult
	ref     *detectRef
}

func setupDetect(seed int64, t *tracer, shards core.ShardFactory) (*detectPass, error) {
	ex, err := core.NewExecutor(detectShards, t.shards(shards))
	if err != nil {
		return nil, err
	}
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		ex.Close()
		return nil, err
	}
	rewind(ex)
	return &detectPass{ex: ex, srv: srv, reqs: apps.GenDetectionRequests(seed, detectRequests)}, nil
}

func (p *detectPass) run(t *tracer) []opTime {
	times := make([]opTime, len(p.reqs))
	p.results = make([]apps.DetectionResult, len(p.reqs))
	for i := range p.reqs {
		t.setOp(int64(i))
		start := now()
		res := p.srv.Serve(p.reqs[i : i+1])
		times[i] = opTime{start, now()}
		p.results[i] = res[0]
	}
	return times
}

func (p *detectPass) failed() int { return len(p.results) - apps.Served(p.results) }

func (p *detectPass) virt() virtOut {
	v := executorVirt(p.ex)
	v.OverheadPct = overheadPct(v.Service, p.ref.service)
	return v
}

func (p *detectPass) counters() counters { return executorCounters(p.ex) }

// check: every request's detection count equals the one the unprotected
// shards computed for it.
func (p *detectPass) check() error {
	if len(p.results) != len(p.ref.objects) {
		return fmt.Errorf("detect: %d results for %d requests", len(p.results), len(p.ref.objects))
	}
	for i, r := range p.results {
		if r.Err != nil {
			return fmt.Errorf("detect: request %d: %w", i, r.Err)
		}
		if r.Objects != p.ref.objects[i] {
			return fmt.Errorf("detect: request %d found %d objects, unprotected %d", i, r.Objects, p.ref.objects[i])
		}
	}
	return nil
}

func (p *detectPass) corrupt() { p.results[len(p.results)/2].Objects++ }

func (p *detectPass) close() { p.ex.Close() }
