package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints, each bounded in
// BENCHMARK.json. Speed is not among them: on the shared machines this
// runs on, the same fixed loop ran up to 20% faster or slower from one
// second to the next, so no time per op stayed within a bound; speed is a
// per-layer figure instead. Heap allocations per op stand in for the
// simulator's cost: they repeat to 0.1%, and a protected call makes about
// six hundred of them. Virtual-clock metrics carry the unit virt_us:
// microseconds on the simulator's cost model.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"virt_p50_us", "virt_us", "lower"},
	{"virt_p99_us", "virt_us", "lower"},
	{"virt_overhead_pct", "%", "lower"},
	{"served_frac", "ratio", "higher"},
}

// perLayer are the metrics a traced run prints. README.md maps each one to
// the end-to-end metric and workload it should move. The speed figures
// lead the list; they come from the run's untraced passes.
var perLayer = []metricDef{
	{"ops_per_cpu_s", "op/cpu-s", "higher"},
	{"ops_per_s", "op/s", "higher"},
	{"wall_p50_us", "us", "lower"},
	{"core.executor.self_us", "us", "lower"},
	{"core.executor.queue_wait_virt_p99_us", "virt_us", "lower"},
	{"sched.place_us", "us", "lower"},
	{"partition.warm_hit_ratio", "ratio", "higher"},
	{"core.runtime.calls_per_op", "calls/op", "lower"},
	{"core.runtime.self_us_per_call", "us", "lower"},
	{"framework.codec_us_per_call", "us", "lower"},
	{"framework.exec_us_per_call", "us", "lower"},
	{"core.runtime.self_virt_us_per_call", "virt_us", "lower"},
	{"framework.exec_virt_us_per_call", "virt_us", "lower"},
	{"ipc.calls_per_op", "calls/op", "lower"},
	{"ipc.bytes_per_op", "B/op", "lower"},
	{"core.ldc.lazy_fraction", "ratio", "higher"},
	{"mem.loads_per_op", "loads/op", "lower"},
	{"mem.bytes_loaded_per_op", "B/op", "lower"},
	{"mem.perm_flips_per_op", "flips/op", "lower"},
	{"object.checkpoints_per_op", "ckpts/op", "lower"},
	{"object.ckptlog_bytes", "B", "lower"},
	{"core.executor.drains", "count", "lower"},
	{"core.executor.migrations", "count", "lower"},
	{"core.runtime.restarts", "count", "lower"},
	{"core.runtime.retries", "count", "lower"},
	{"chaos.injected_faults", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.sched_latency_p99_us", "us", "lower"},
	{"trace.ops_per_cpu_s_delta", "op/cpu-s", "higher"},
}

// checkManifest fails when BENCHMARK.json and the tables above disagree,
// so the declared metrics and the printed ones cannot drift apart.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read manifest: %w", err)
	}
	var m struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("parse manifest: %w", err)
	}
	same := func(a, b []metricDef) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(m.EndToEnd, endToEnd) || !same(m.PerLayer, perLayer) {
		return fmt.Errorf("%s declares other metrics than the benchmark prints", path)
	}
	return nil
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit builds the metric map for defs from vals, refusing a missing one.
func emit(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a number: %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// median returns the middle value (mean of the two middle ones for an
// even count) of xs, which it sorts in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// us converts a wall duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// goSample is a reading of the Go runtime's own counters.
type goSample struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
	sched              *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		sched:      s[4].Value.Float64Histogram(),
	}
}

// goDelta is what the Go runtime did between two readings.
type goDelta struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
	schedCounts        []uint64
	schedBuckets       []float64
}

func (a goSample) to(b goSample) goDelta {
	d := goDelta{
		allocs:       b.allocs - a.allocs,
		allocBytes:   b.allocBytes - a.allocBytes,
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
		schedCounts:  make([]uint64, len(b.sched.Counts)),
		schedBuckets: b.sched.Buckets,
	}
	for i := range d.schedCounts {
		d.schedCounts[i] = b.sched.Counts[i] - a.sched.Counts[i]
	}
	return d
}

// add accumulates another window into d.
func (d *goDelta) add(o goDelta) {
	d.allocs += o.allocs
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	if d.schedCounts == nil {
		d.schedCounts = make([]uint64, len(o.schedCounts))
		d.schedBuckets = o.schedBuckets
	}
	for i, c := range o.schedCounts {
		d.schedCounts[i] += c
	}
}

// schedP99us is the upper edge, in microseconds, of the histogram bucket
// holding the 99th-percentile goroutine scheduling latency.
func (d goDelta) schedP99us() float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d.schedCounts {
		seen += c
		if seen >= rank {
			edge := d.schedBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = d.schedBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// cpuTime is the CPU time all of this process's threads have used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}
