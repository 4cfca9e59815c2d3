// Command perfbench is the repository's benchmark. It drives one workload
// through the public entry points of internal/apps in fixed-length passes
// until the requested seconds are used, checks every output against an
// unprotected or analytic reference, and prints one JSON result as the last
// line of standard output: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. README.md describes the workloads and
// metrics. Run it from the repository root through the launcher, which
// builds it:
//
//	python3 perfbench/run.py --workload detect-serve --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"freepart.dev/freepart/internal/vclock"
)

// pass is one fixed-length run of a workload over a freshly built system:
// set up, timed op by op, then read, checked and closed. Every pass of one
// process uses the same seed, so passes repeat each other's inputs exactly.
type pass interface {
	// run executes the pass's ops and returns their wall intervals in op
	// order.
	run(t *tracer) []opTime
	// failed counts ops that returned an error.
	failed() int
	// virt reports the pass's virtual-clock results.
	virt() virtOut
	// counters reads the runtime's own counters.
	counters() counters
	// check compares the pass's outputs with the workload's reference.
	check() error
	// corrupt damages the pass's outputs, so a self-test can show that
	// check notices.
	corrupt()
	close()
}

// workload builds passes. Its constructor computes the reference the
// passes are checked against.
type workload struct {
	op    string // the unit timed from outside
	setup func(t *tracer) (pass, error)
}

var workloads = map[string]func(seed int64) (workload, error){
	"detect-serve": newDetect,
	"track-chaos":  newTrack,
	"apps-fig13":   newAppsFig13,
	"zipf-visits":  newZipf,
}

// virtOut is a pass's virtual-clock result. The cost model charges every
// field, so passes over one seed must agree exactly.
type virtOut struct {
	P50, P99    vclock.Duration // per-op virtual latency percentiles
	QueueP99    vclock.Duration // 99th-percentile admission-queue wait
	Service     vclock.Duration // summed virtual service time
	OverheadPct float64         // virtual time over the workload's baseline, minus one, in percent
}

// counters are the runtime's own counters, summed over every shard
// incarnation (or every app runtime) of a pass, indexed by the c*
// constants.
type counters [nCounters]uint64

const (
	cAPICalls = iota
	cIPCCalls
	cIPCBytes
	cLazy
	cEager
	cPermFlips
	cCheckpoints
	cRestarts
	cRetries
	cInjected
	cMemLoads
	cMemBytes
	cDrains
	cMigrations
	cCkptBytes
	cWarmHits
	cColdMisses
	nCounters
)

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// passOut is what the harness keeps of one pass.
type passOut struct {
	traced   bool
	setup    time.Duration // wall time of set-up
	setupCPU time.Duration // CPU time of set-up
	ops      int
	wallP50  float64       // median wall microseconds per op
	window   time.Duration // wall time from the first op's start to the last op's end
	cpu      time.Duration // CPU time of the ops
	failed   int
	heapMB   float64
	virt     virtOut
	counters counters // over the timed window
	goDelta  goDelta
	layers   layerTimes
}

// maxSeconds bounds -seconds, so one invocation ends within its budget.
const maxSeconds = 60

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: detect-serve, track-chaos, apps-fig13 or zipf-visits")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "seconds to measure for")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || *seconds > maxSeconds || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		return 2
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// One P. On a 2-vCPU machine shared with other tenants, two Ps made
	// the CPU time per op of the IPC-heavy workloads swing by 5-10% more
	// between runs, as goroutine handoffs crossed vCPUs and idle Ps spun.
	runtime.GOMAXPROCS(1)

	w, err := mk(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, ctx, err := measure(w, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx["env"] = map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpus":       runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"seconds":    *seconds,
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measure runs passes until the window is used and assembles the result
// line plus a context line recording how the numbers were obtained. With
// traced set, passes alternate untraced and traced, so the tracing
// overhead compares passes of the same length run side by side.
func measure(w workload, name string, seed int64, window time.Duration, traced bool) (result, map[string]any, error) {
	var passes []passOut
	var lastTrace *tracer
	var checkErrs []string
	start := time.Now()
	for i := 0; ; i++ {
		tr := (*tracer)(nil)
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		po, err := runPass(w, tr, i == 0)
		if err != nil {
			var ce checkError
			if !errors.As(err, &ce) {
				return result{}, nil, fmt.Errorf("pass %d: %w", i, err)
			}
			checkErrs = append(checkErrs, fmt.Sprintf("pass %d: %v", i, err))
		}
		if tr != nil {
			lastTrace = tr
		}
		passes = append(passes, po)
		if (!traced || len(passes) >= 2) && time.Since(start) >= window {
			break
		}
	}

	// Every pass ran the same inputs, so every virtual result must repeat
	// the first clean pass's exactly, traced or not. A failed op changes
	// what the rest of its pass does, so passes with one are reported
	// rather than compared.
	var attempted, failed int
	var failedPasses []int
	clean := -1
	for i, p := range passes {
		attempted += p.ops
		failed += p.failed
		if p.failed > 0 {
			failedPasses = append(failedPasses, i)
			continue
		}
		if clean < 0 {
			clean = i
		} else if p.virt != passes[clean].virt {
			checkErrs = append(checkErrs, fmt.Sprintf("pass %d: virtual results %+v differ from pass %d's %+v", i, p.virt, clean, passes[clean].virt))
		}
	}
	if clean < 0 {
		clean = 0
	}
	v := passes[clean].virt
	ctx := map[string]any{
		"workload":      name,
		"seed":          seed,
		"op":            w.op,
		"passes":        len(passes),
		"ops_per_pass":  passes[0].ops,
		"failed_passes": failedPasses,
		"virt": map[string]any{
			"p50_ns": int64(v.P50), "p99_ns": int64(v.P99), "queue_p99_ns": int64(v.QueueP99),
			"service_ns": int64(v.Service), "overhead_pct": v.OverheadPct,
		},
		"check_errors": checkErrs,
	}
	res := result{Correct: len(checkErrs) == 0, Attempted: attempted, Failed: failed}

	untraced, tracedPasses := split(passes)
	ctx["speed"] = speedValues(untraced)
	if !traced {
		setups, err := setupSamples(w, untraced)
		if err != nil {
			return result{}, nil, err
		}
		ctx["setup_samples"] = setups
		res.Metrics, err = emit(endToEnd, endToEndValues(untraced, setups, v, attempted, failed))
		return res, ctx, err
	}
	vals, lt := perLayerValues(untraced, tracedPasses, v)
	ctx["trace_accounting"] = lt.accounting()
	ctx["speed_traced"] = speedValues(tracedPasses)
	if path, err := lastTrace.write(filepath.Join(".bench_build", "spans"), fmt.Sprintf("%s-seed%d.jsonl", name, seed)); err == nil {
		ctx["spans"] = path
	} else {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if lt.escaped != 0 {
		res.Correct = false
		ctx["check_errors"] = append(checkErrs, fmt.Sprintf("%d child spans escaped their parent span", lt.escaped))
	}
	var err error
	res.Metrics, err = emit(perLayer, vals)
	return res, ctx, err
}

// checkError marks an output check that failed: the run still reports,
// with correct set to false.
type checkError struct{ error }

// runPass builds, times, reads, checks and closes one pass. selfTest also
// damages the outputs after a passing check and expects the check to fail.
func runPass(w workload, tr *tracer, selfTest bool) (passOut, error) {
	// Start every pass from a collected heap, so garbage left by the
	// previous pass is not charged to this one's set-up or ops.
	runtime.GC()
	t0, cpu0 := time.Now(), cpuTime()
	p, err := w.setup(tr)
	setup, setupCPU := time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return passOut{}, fmt.Errorf("setup: %w", err)
	}
	defer p.close()
	c0 := p.counters()
	g0 := readGo()
	cpu0 = cpuTime()
	if tr != nil {
		tr.on.Store(true)
	}
	times := p.run(tr)
	if tr != nil {
		tr.on.Store(false)
	}
	cpu := cpuTime() - cpu0
	g1 := readGo()
	po := passOut{
		traced: tr != nil, setup: setup, setupCPU: setupCPU, cpu: cpu, ops: len(times),
		failed: p.failed(), counters: p.counters().minus(c0), goDelta: g0.to(g1),
	}
	walls := make([]float64, len(times))
	lo, hi := times[0].start, times[0].end
	for i, ot := range times {
		walls[i] = us(time.Duration(ot.end - ot.start))
		lo, hi = min(lo, ot.start), max(hi, ot.end)
	}
	po.wallP50, po.window = median(walls), time.Duration(hi-lo)
	if tr != nil {
		tr.ops(times)
		po.layers = tr.summarize()
	}
	// The heap is read after the per-op samples above are dropped, so it
	// holds the pass's system and not the benchmark's own bookkeeping.
	po.heapMB = liveHeapMB()
	po.virt = p.virt()
	if err := p.check(); err != nil {
		return po, checkError{err}
	}
	if selfTest {
		p.corrupt()
		if p.check() == nil {
			return po, checkError{errors.New("self-test: the output check accepted corrupted outputs")}
		}
	}
	return po, nil
}

func split(passes []passOut) (untraced, traced []passOut) {
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	return untraced, traced
}

// opsPer is ops completed per second of the passes' timed windows, on the
// CPU clock or the wall clock.
func opsPer(passes []passOut, cpu bool) float64 {
	var ops int
	var d time.Duration
	for _, p := range passes {
		ops += p.ops
		if cpu {
			d += p.cpu
		} else {
			d += p.window
		}
	}
	return float64(ops) / d.Seconds()
}

// speed is how fast passes ran, on both clocks; the wall time per op is
// the median of the passes' medians, passes being of equal length.
func speed(passes []passOut) (opsPerCPUs, opsPerS, wallP50us float64) {
	var p50s []float64
	for _, p := range passes {
		p50s = append(p50s, p.wallP50)
	}
	return opsPer(passes, true), opsPer(passes, false), median(p50s)
}

// speedValues are the passes' speed figures and wall-clock set-up time, for
// the context line.
func speedValues(passes []passOut) map[string]value {
	cpuRate, wallRate, p50 := speed(passes)
	var setups []float64
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
	}
	return map[string]value{
		"ops_per_cpu_s": {cpuRate, "op/cpu-s"},
		"ops_per_s":     {wallRate, "op/s"},
		"wall_p50_us":   {p50, "us"},
		"wall_setup_s":  {median(setups), "s"},
	}
}

// A run times at least minSetups set-ups, and keeps timing more, up to
// maxSetups, until they add up to setupBudget of CPU time: a set-up of a
// few milliseconds is easily doubled by a burst of other tenants' load, so
// its median needs more samples than a long one's.
const (
	minSetups   = 11
	maxSetups   = 41
	setupBudget = 0.2 // seconds
)

// setupSamples returns the CPU seconds of every pass's set-up, plus extra
// set-ups, each closed at once, until the sample counts above are met.
func setupSamples(w workload, passes []passOut) ([]float64, error) {
	var out []float64
	var total float64
	for _, p := range passes {
		out = append(out, p.setupCPU.Seconds())
		total += p.setupCPU.Seconds()
	}
	for len(out) < minSetups || (total < setupBudget && len(out) < maxSetups) {
		runtime.GC()
		cpu0 := cpuTime()
		p, err := w.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := (cpuTime() - cpu0).Seconds()
		out = append(out, d)
		total += d
		p.close()
	}
	return out, nil
}

func endToEndValues(passes []passOut, setups []float64, v virtOut, attempted, failed int) map[string]float64 {
	var heaps []float64
	var g goDelta
	var ops int
	for _, p := range passes {
		heaps = append(heaps, p.heapMB)
		g.add(p.goDelta)
		ops += p.ops
	}
	return map[string]float64{
		"setup_s":            median(setups),
		"allocs_per_op":      float64(g.allocs) / float64(ops),
		"alloc_bytes_per_op": float64(g.allocBytes) / float64(ops),
		"live_heap_mb":       median(heaps),
		"virt_p50_us":        v.P50.Seconds() * 1e6,
		"virt_p99_us":        v.P99.Seconds() * 1e6,
		"virt_overhead_pct":  v.OverheadPct,
		"served_frac":        float64(attempted-failed) / float64(attempted),
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues computes the per-layer metrics: span-derived ones from the
// traced passes, the Go runtime's from the untraced ones (spans allocate),
// and counters from the traced passes (the counters do not see tracing).
func perLayerValues(untraced, traced []passOut, v virtOut) (map[string]float64, layerTimes) {
	var lt layerTimes
	var c counters
	var ops int
	for _, p := range traced {
		lt.add(p.layers)
		c.add(p.counters)
		ops += p.ops
	}
	var g goDelta
	for _, p := range untraced {
		g.add(p.goDelta)
	}
	n := float64(ops)
	np := float64(len(traced))
	cpuRate, wallRate, p50 := speed(untraced)
	vals := map[string]float64{
		"ops_per_cpu_s":                        cpuRate,
		"ops_per_s":                            wallRate,
		"wall_p50_us":                          p50,
		"core.executor.self_us":                ratio(float64(lt.opSelfNs)/1e3, float64(lt.ops)),
		"core.executor.queue_wait_virt_p99_us": v.QueueP99.Seconds() * 1e6,
		"sched.place_us":                       ratio(float64(lt.placeNs)/1e3, float64(lt.places)),
		"partition.warm_hit_ratio":             ratio(float64(c[cWarmHits]), float64(c[cWarmHits]+c[cColdMisses])),
		"core.runtime.calls_per_op":            float64(c[cAPICalls]) / n,
		"core.runtime.self_us_per_call":        ratio(float64(lt.callSelfNs)/1e3, float64(lt.calls)),
		"framework.codec_us_per_call":          ratio(float64(lt.codecNs)/1e3, float64(lt.codecCalls)),
		"framework.exec_us_per_call":           ratio(float64(lt.execNs)/1e3, float64(lt.execs)),
		"core.runtime.self_virt_us_per_call":   ratio(lt.callSelfV.Seconds()*1e6, float64(lt.calls)),
		"framework.exec_virt_us_per_call":      ratio(lt.execV.Seconds()*1e6, float64(lt.execs)),
		"ipc.calls_per_op":                     float64(c[cIPCCalls]) / n,
		"ipc.bytes_per_op":                     float64(c[cIPCBytes]) / n,
		"core.ldc.lazy_fraction":               ratio(float64(c[cLazy]), float64(c[cLazy]+c[cEager])),
		"mem.loads_per_op":                     float64(c[cMemLoads]) / n,
		"mem.bytes_loaded_per_op":              float64(c[cMemBytes]) / n,
		"mem.perm_flips_per_op":                float64(c[cPermFlips]) / n,
		"object.checkpoints_per_op":            float64(c[cCheckpoints]) / n,
		"object.ckptlog_bytes":                 float64(c[cCkptBytes]) / np,
		"core.executor.drains":                 float64(c[cDrains]) / np,
		"core.executor.migrations":             float64(c[cMigrations]) / np,
		"core.runtime.restarts":                float64(c[cRestarts]) / np,
		"core.runtime.retries":                 float64(c[cRetries]) / np,
		"chaos.injected_faults":                float64(c[cInjected]) / np,
		"go.gc_cpu_frac":                       ratio(g.gcCPU, g.totalCPU),
		"go.sched_latency_p99_us":              g.schedP99us(),
		"trace.ops_per_cpu_s_delta":            opsPer(traced, true) - opsPer(untraced, true),
	}
	return vals, lt
}

// cpuModel names the processor, or "unknown" where the system does not say.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
