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

// TestServeStreamsIdleShardsCostNothing serves one tracking stream per call
// on a one-shard and on an eight-shard direct pool. The seven idle shards
// may start nothing: no goroutine, closure or WaitGroup, so both pools make
// the same allocations per call (a goroutine per idle slot made seven more).
func TestServeStreamsIdleShardsCostNothing(t *testing.T) {
	streams := apps.GenTrackStreams(3, 1, 4)
	perCall := func(shards int) float64 {
		ex, err := core.NewExecutor(shards, core.DirectShards(all.Registry()))
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		srv := apps.ProvisionTracking(ex)
		var failed error
		serve := func() {
			if r := srv.ServeStreams(streams); r[0].Err != nil && failed == nil {
				failed = r[0].Err
			}
		}
		for i := 0; i < 2*shards; i++ { // every shard has served a stream
			serve()
		}
		allocs := testing.AllocsPerRun(64, serve)
		if failed != nil {
			t.Fatal(failed)
		}
		return allocs
	}
	one, eight := perCall(1), perCall(8)
	t.Logf("%.0f allocs per call on one shard, %.0f on eight", one, eight)
	if eight > one {
		t.Fatalf("eight shards made %.0f allocs per call against %.0f on one: idle shards cost work", eight, one)
	}
}
