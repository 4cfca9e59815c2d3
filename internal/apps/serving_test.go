package apps_test

import (
	"testing"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/mem"
)

// TestDetectionServesInBoundedMemory is the long-running server of §4.4.2
// in miniature: one protected detection shard serves 5,000 requests with
// every agent space capped at 64 pages above what provisioning mapped.
// Each finished request's objects and checkpoints must be released, or the
// cap runs out within the first 64 requests (about two pages leak per
// request). Mapped pages and checkpoint-log keys may not grow after the
// first 100 requests.
func TestDetectionServesInBoundedMemory(t *testing.T) {
	const (
		warm     = 100
		requests = 5000
		headroom = 64 // pages
	)
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	ex, err := core.NewExecutor(1, core.ProtectedShards(reg, cat, core.Default()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	srv, err := apps.ProvisionDetection(ex)
	if err != nil {
		t.Fatal(err)
	}
	agents := ex.Shard(0).Rt.Agents()
	for _, p := range agents {
		mapped := p.Space().Stats().PagesMapped
		p.Space().SetLimit(mem.Addr((1 + mapped + headroom) * mem.PageSize))
	}
	state := func() (pages uint64, keys int) {
		for _, p := range agents {
			pages += p.Space().Stats().PagesMapped
		}
		return pages, ex.CheckpointLog().Stats().Keys
	}

	reqs := apps.GenDetectionRequests(11, requests)
	serve := func(reqs []apps.DetectionRequest) {
		t.Helper()
		for i, r := range srv.Serve(reqs) {
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
		}
	}
	serve(reqs[:warm])
	pages, keys := state()
	serve(reqs[warm:])
	if p, k := state(); p > pages || k > keys {
		t.Fatalf("after %d requests: %d pages mapped, %d checkpoint keys; after %d: %d and %d", requests, p, k, warm, pages, keys)
	}
}
