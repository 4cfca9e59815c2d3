package report

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// TestCountersPinned pins every metrics.Snapshot field, per shard
// incarnation and for the executor, after three fixed runs: a protected
// detection shard, a chaos tracking pool whose crash-looping shard drains
// and migrates, and the tiered isolation probe. A change to how or where a
// counter is bumped that moves a count in these runs fails here. All three
// run under lazy data copy, so eager copies stay zero; Table 12 in the
// checked-in experiments output counts those.
func TestCountersPinned(t *testing.T) {
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	runs := []struct {
		name string
		run  func() (*core.Executor, error)
		want string
	}{
		{"detect", func() (*core.Executor, error) {
			ex, err := core.NewExecutor(1, core.ProtectedShards(reg, cat, core.Default()))
			if err != nil {
				return nil, err
			}
			srv, err := apps.ProvisionDetection(ex)
			if err != nil {
				return ex, err
			}
			for i, r := range srv.Serve(apps.GenDetectionRequests(1, 8)) {
				if r.Err != nil {
					return ex, fmt.Errorf("request %d: %w", i, r.Err)
				}
			}
			return ex, nil
		}, `shard 0/gen 0: IPCCalls=17 BytesMoved=2412 LazyCopies=9 PermFlips=16 APICalls=17 Checkpoints=25
executor:
`},
		{"track-chaos", func() (*core.Executor, error) {
			cfg := core.ChaosConfig(nil)
			cfg.BreakerThreshold = 3
			cfg.BreakerWindow = vclock.Duration(200 * time.Millisecond)
			root := chaos.Scaled(1, 0)
			crash := root
			crash.Mem.FaultProb = 1
			planOf := func(id, gen int) chaos.Plan {
				if id == 1 && gen == 0 {
					return crash.ForShard(id)
				}
				return root.ForShard(id)
			}
			ex, err := core.NewExecutor(2, core.ChaosShards(reg, cat, cfg, planOf))
			if err != nil {
				return nil, err
			}
			ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})
			for i, r := range apps.ProvisionTracking(ex).ServeRamp(apps.GenTrackStreams(1, 4, 20), nil, nil) {
				if r.Err != nil {
					return ex, fmt.Errorf("stream %d: %w", i, r.Err)
				}
			}
			return ex, nil
		}, `shard 0/gen 0: IPCCalls=44 APICalls=44 Checkpoints=44
shard 1/gen 0: IPCCalls=3 Restarts=3 APICalls=1 Retries=2 Degraded=1 InjectedFaults=4
shard 1/gen 1: IPCCalls=44 APICalls=44 Checkpoints=44
executor: ShardDrains=1 Migrations=1
`},
		{"tiered-probe", func() (*core.Executor, error) {
			return isolationServing(reg, hybridCatCached(reg), isolation.Tiered(), 4, 16)
		}, `shard 0/gen 0: IPCCalls=13 BytesMoved=4464 LazyCopies=13 PermFlips=12 APICalls=21 Checkpoints=13 DomainSwitches=16
shard 1/gen 0: IPCCalls=13 BytesMoved=4167 LazyCopies=13 PermFlips=12 APICalls=21 Checkpoints=13 DomainSwitches=16
shard 2/gen 0: IPCCalls=13 BytesMoved=3816 LazyCopies=13 PermFlips=12 APICalls=21 Checkpoints=13 DomainSwitches=16
shard 3/gen 0: IPCCalls=13 BytesMoved=3411 LazyCopies=13 PermFlips=12 APICalls=21 Checkpoints=13 DomainSwitches=16
executor:
`},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			ex, err := r.run()
			if ex != nil {
				defer ex.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := renderCounters(ex); got != r.want {
				t.Errorf("counters moved:\ngot:\n%s\nwant:\n%s", got, r.want)
			}
		})
	}
}

// renderCounters renders the nonzero fields of every shard incarnation's
// runtime counters and of the executor's own, one snapshot per line.
func renderCounters(ex *core.Executor) string {
	var b strings.Builder
	for id := 0; id < ex.Shards(); id++ {
		for _, sh := range ex.Incarnations(id) {
			if sh.Rt != nil {
				fmt.Fprintf(&b, "shard %d/gen %d:%s\n", id, sh.Gen, nonzeroFields(sh.Rt.Metrics.Snapshot()))
			}
		}
	}
	fmt.Fprintf(&b, "executor:%s\n", nonzeroFields(ex.Metrics().Snapshot()))
	return b.String()
}

func nonzeroFields(s metrics.Snapshot) string {
	v := reflect.ValueOf(s)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(&b, " %s=%v", v.Type().Field(i).Name, f.Interface())
		}
	}
	return b.String()
}
