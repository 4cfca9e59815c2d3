package chaos_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/apps"
	"freepart.dev/freepart/internal/chaos"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// scenario is one row of the replay harness; every chaos soak and
// zero-cost guard is one (rows_test.go). For each seed the harness checks
// that every request or stream was served, that the outputs equal the
// fault-free baseline, that a second run gives the same digest, and that
// each variant gives it too; a zero-cost row's variant installs its layer
// disabled. The digest covers everything a run leaves behind.
type scenario struct {
	// seeds are the row's seeds; -short keeps the first short (at least
	// one). A row without seeds runs once, at seed 0.
	seeds []int64
	short int
	// serve runs the workload: variant 0 is the plain run, and variants
	// 1..variants must each give its digest.
	serve    func(t *testing.T, seed int64, variant int) run
	variants int
	// baseline serves the fault-free outputs: nil when the plain run is
	// fault-free itself, or sheds, which makes its outputs load-bound.
	baseline func(t *testing.T, seed int64) any
	// fired is the least each named counter must read, beyond one API
	// call: a metrics.Snapshot field summed over the pool and every
	// runtime of the run.
	fired map[string]uint64
	// check asserts the row's own claims about the plain run.
	check func(t *testing.T, r run)
}

// run is what one serve leaves behind: the outputs the baseline must
// equal; the pool, or a single-runtime row's runtime, which digests as the
// one incarnation of slot 0; and the controller, defense and
// partition-plane logs.
type run struct {
	out  any
	ex   *core.Executor
	rt   *core.Runtime
	logs []string
}

func (sc scenario) run(t *testing.T) {
	if sc.seeds == nil {
		sc.runSeed(t, 0)
		return
	}
	seeds := sc.seeds
	if testing.Short() {
		seeds = seeds[:max(sc.short, 1)]
	}
	width := max(len(fmt.Sprint(slices.Max(sc.seeds))), 2)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%0*d", width, seed), func(t *testing.T) { sc.runSeed(t, seed) })
	}
}

func (sc scenario) runSeed(t *testing.T, seed int64) {
	r := sc.serve(t, seed, 0)
	if err := unserved(r.out); err != nil {
		t.Fatal(err)
	}
	if sc.baseline != nil {
		if got, want := fmt.Sprintf("%+v", r.out), fmt.Sprintf("%+v", sc.baseline(t, seed)); got != want {
			t.Fatalf("outputs diverged from the fault-free baseline:\ngot:  %s\nwant: %s", got, want)
		}
	}
	for name, least := range sc.fired {
		if got := r.counter(name); got < least {
			t.Fatalf("%s = %d, want at least %d: the row exercised nothing", name, got, least)
		}
	}
	if r.counter("APICalls") == 0 {
		t.Fatal("the row called no API")
	}
	if sc.check != nil {
		sc.check(t, r)
	}
	want := r.digest()
	for v := 0; v <= sc.variants; v++ {
		if got := sc.serve(t, seed, v).digest(); got != want {
			t.Fatalf("variant %d (0 is the replay) diverged from the run's digest at %s", v, firstDiff(want, got))
		}
	}
}

// unserved reports the first request, stream or campaign wave request
// that was not served.
func unserved(out any) error {
	switch out := out.(type) {
	case []apps.DetectionResult:
		for i, r := range out {
			if r.Err != nil {
				return fmt.Errorf("request %d: %w", i, r.Err)
			}
		}
	case []apps.TrackResult:
		for i, r := range out {
			if r.Err != nil {
				return fmt.Errorf("stream %d: %w", i, r.Err)
			}
		}
	case campaignOut:
		for w, classes := range out.Waves {
			if i := slices.IndexFunc(classes, func(c string) bool { return c != "ok" }); i >= 0 {
				return fmt.Errorf("wave %d request %d failed with class %s", w, i, classes[i])
			}
		}
	}
	return nil
}

// slots lists every incarnation of the run, by slot in generation order.
func (r run) slots() [][]*core.Shard {
	if r.rt != nil {
		return [][]*core.Shard{{{K: r.rt.K, Rt: r.rt}}}
	}
	var out [][]*core.Shard
	for id := 0; len(r.ex.Incarnations(id)) > 0; id++ {
		out = append(out, r.ex.Incarnations(id))
	}
	return out
}

// counter sums one metrics.Snapshot field over the pool's own counters and
// every runtime of the run.
func (r run) counter(name string) (sum uint64) {
	add := func(c *metrics.Counters) { sum += reflect.ValueOf(c.Snapshot()).FieldByName(name).Uint() }
	if r.ex != nil {
		add(r.ex.Metrics())
	}
	for _, incs := range r.slots() {
		for _, sh := range incs {
			add(sh.Rt.Metrics)
		}
	}
	return sum
}

// digest renders the run as one canonical string: the outputs; per slot
// and incarnation the final clock, the runtime's nonzero counters and the
// injection log; per slot the executor's event subsequence; the
// executor's counters, latency and queue-wait distributions, critical
// path, gray scores and shard loads; and the run's other logs.
func (r run) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "out %+v\n", r.out)
	for id, incs := range r.slots() {
		for _, sh := range incs {
			fmt.Fprintf(&b, "slot %d gen %d clock %v%s\n", id, sh.Gen, sh.Clock().Now(), nonzero(sh.Rt.Metrics))
			if eng := sh.Chaos(); eng != nil {
				b.WriteString(eng.Events().String())
			}
		}
		if r.ex != nil {
			fmt.Fprintf(&b, "slot %d events\n%s", id, r.ex.EventsFor(id))
		}
	}
	if ex := r.ex; ex != nil {
		fmt.Fprintf(&b, "pool%s\nlatency %s\nqueue %s\ncritical %v\ngray %+v\nloads %+v\n",
			nonzero(ex.Metrics()), dist(ex.Latencies()), dist(ex.QueueWaits()),
			ex.CriticalPath(), ex.GrayScores(), ex.ShardLoads())
	}
	b.WriteString(strings.Join(r.logs, ""))
	return b.String()
}

// nonzero renders the nonzero counters by name.
func nonzero(c *metrics.Counters) string {
	v := reflect.ValueOf(c.Snapshot())
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(&b, " %s=%v", v.Type().Field(i).Name, f)
		}
	}
	return b.String()
}

// dist renders a latency distribution whole: each distinct sample, in
// order, with its count.
func dist(l *vclock.Latencies) string {
	n := l.Len()
	// The nearest-rank percentile at rank-½ of n is the sample of that rank.
	at := func(rank int) vclock.Duration { return l.Percentile(100 * (float64(rank) - 0.5) / float64(n)) }
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", n)
	for rank := 1; rank <= n; {
		v, count := at(rank), 1
		for rank+count <= n && at(rank+count) == v {
			count++
		}
		fmt.Fprintf(&b, " %v×%d", v, count)
		rank += count
	}
	return b.String()
}

// firstDiff shows the first line where two digests part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("the end: %d lines against %d", len(w), len(g))
}

// reg and cat are the registry and categorization every row builds on.
var (
	reg = all.Registry()
	cat = analysis.New(reg, nil).Categorize()
)

// executor builds an n-slot pool from factory, closed when the test ends.
func executor(t *testing.T, n int, factory core.ShardFactory) *core.Executor {
	t.Helper()
	ex, err := core.NewExecutor(n, factory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Close)
	return ex
}

// protected builds a fault-free pool of n FreePart shards under cfg.
func protected(t *testing.T, n int, cfg core.Config) *core.Executor {
	return executor(t, n, core.ProtectedShards(reg, cat, cfg))
}

// crashLoopConfig is the soak shard configuration: its breaker degrades a
// crash-looping partition to in-host execution before the retry budget
// runs out, so every call still completes.
func crashLoopConfig() core.Config {
	cfg := core.ChaosConfig(nil)
	cfg.BreakerThreshold = 3
	cfg.BreakerWindow = vclock.Duration(200 * time.Millisecond)
	return cfg
}

// crashLoop is a soak's chaos plan: background faults of the given
// intensity from seed on every slot, and in slot crash's first generation
// (none when crash < 0) a fault on every checked write into an agent's
// space, the crash lever for workloads that make no kernel syscalls. Its
// replacement models a healthy machine.
func crashLoop(seed int64, intensity float64, crash int) func(id, gen int) chaos.Plan {
	root := chaos.Scaled(seed, intensity)
	return func(id, gen int) chaos.Plan {
		p := root.ForShard(id)
		if id == crash && gen == 0 {
			p.Mem.FaultProb = 1
		}
		return p
	}
}

// chaosPool builds n slots under cfg and planOf that drain a degraded
// shard at its next admission, restoring isolation by failover.
func chaosPool(t *testing.T, n int, cfg core.Config, planOf func(id, gen int) chaos.Plan) *core.Executor {
	ex := executor(t, n, core.ChaosShards(reg, cat, cfg, planOf))
	ex.SetHealthPolicy(core.HealthPolicy{FailThreshold: 1, DrainOnDegrade: true})
	return ex
}

// newRuntime builds one FreePart runtime under cfg on a fresh kernel.
func newRuntime(t *testing.T, cfg core.Config) *core.Runtime {
	t.Helper()
	rt, err := core.New(kernel.New(), reg, cat, cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}
