package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/sched"
	"freepart.dev/freepart/internal/vclock"
)

// epoch anchors every wall timestamp the benchmark takes; now() reads the
// monotonic clock relative to it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// opTime is one op's wall interval, in nanoseconds since epoch.
type opTime struct{ start, end int64 }

// Span names. An op span wraps each per-op call into apps; runtime.call
// wraps each call through a shard's core.Caller; framework.exec wraps each
// API.Impl; sched.place wraps each placement decision.
const (
	spanOp    = "op"
	spanCall  = "runtime.call"
	spanExec  = "framework.exec"
	spanPlace = "sched.place"
)

// span is one traced interval. Wall times are nanoseconds since epoch;
// vstart/vend read the virtual clock of the shard the span ran on.
type span struct {
	Name   string          `json:"name"`
	ID     int32           `json:"id"`
	Parent int32           `json:"parent"` // span id; -1 when none
	Op     int64           `json:"op"`     // op id; -1 outside an op
	Start  int64           `json:"start_ns"`
	End    int64           `json:"end_ns"`
	VStart vclock.Duration `json:"vstart_ns"`
	VEnd   vclock.Duration `json:"vend_ns"`
	API    string          `json:"api,omitempty"`
}

// codecSample is one traced call's request and reply, kept to replay
// through the framework codec after the pass.
type codecSample struct {
	call     framework.Call
	reply    framework.Reply
	hasReply bool
}

// maxCodecSamples bounds the codec replay per pass.
const maxCodecSamples = 4096

// tracer keeps one traced pass's spans in memory. Every hook is a method
// on a possibly nil *tracer; nil records nothing, so the untraced passes
// run the same workload code with no wrappers installed.
type tracer struct {
	// on is set while the pass's ops run: calls made during set-up, such
	// as model loads, record nothing.
	on atomic.Bool
	// op is the id of the op running now; ops run one at a time.
	op atomic.Int64

	mu       sync.Mutex
	spans    []span
	open     map[*kernel.Kernel]int32 // the runtime.call open on each shard kernel
	samples  []codecSample
	sampleOf map[int32]int // runtime.call span id -> samples index
	orphans  int           // framework.exec spans with no open runtime.call
}

func newTracer() *tracer {
	t := &tracer{open: make(map[*kernel.Kernel]int32), sampleOf: make(map[int32]int)}
	t.op.Store(-1)
	return t
}

// setOp records that op is now running.
func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op.Store(op)
	}
}

// add appends s and returns its id.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	return s.ID
}

// ops records the pass's op spans and makes each one the parent of the
// runtime.call and sched.place spans recorded under its op id.
func (t *tracer) ops(times []opTime) {
	if t == nil {
		return
	}
	first := int32(len(t.spans))
	for i, ot := range times {
		t.add(span{Name: spanOp, Parent: -1, Op: int64(i), Start: ot.start, End: ot.end})
	}
	for i := range t.spans[:first] {
		s := &t.spans[i]
		if (s.Name == spanCall || s.Name == spanPlace) && s.Op >= 0 && s.Op < int64(len(times)) {
			s.Parent = first + int32(s.Op)
		}
	}
}

// timedCaller is the core.Caller a traced shard runs behind: each call is
// a runtime.call span, and the span stays open on the shard's kernel while
// the call runs, so framework.exec spans inside it find their parent.
type timedCaller struct {
	inner core.Caller
	k     *kernel.Kernel
	t     *tracer
}

func (c *timedCaller) begin(api string, args []framework.Value) int32 {
	s := span{Name: spanCall, Parent: -1, Op: c.t.op.Load(), VStart: c.k.Clock.Now(), API: api}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	s.ID = int32(len(c.t.spans))
	s.Start = now()
	c.t.spans = append(c.t.spans, s)
	c.t.open[c.k] = s.ID
	if args != nil && len(c.t.samples) < maxCodecSamples {
		call := framework.Call{API: api, Args: append([]framework.Value(nil), args...), Payloads: make([][]byte, len(args))}
		c.t.sampleOf[s.ID] = len(c.t.samples)
		c.t.samples = append(c.t.samples, codecSample{call: call})
	}
	return s.ID
}

func (c *timedCaller) end(id int32) {
	end := now()
	v := c.k.Clock.Now()
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.spans[id].End, c.t.spans[id].VEnd = end, v
	delete(c.t.open, c.k)
}

// Call implements core.Caller.
func (c *timedCaller) Call(api string, args ...framework.Value) ([]core.Handle, []framework.Value, error) {
	if !c.t.on.Load() {
		return c.inner.Call(api, args...)
	}
	id := c.begin(api, args)
	defer c.end(id)
	return c.inner.Call(api, args...)
}

// Fetch implements core.Caller. A fetch crosses the runtime and IPC like a
// call, so it is a runtime.call span too.
func (c *timedCaller) Fetch(h core.Handle) ([]byte, error) {
	if !c.t.on.Load() {
		return c.inner.Fetch(h)
	}
	id := c.begin("fetch", nil)
	defer c.end(id)
	return c.inner.Fetch(h)
}

// caller wraps ex, which runs on k, or returns ex unchanged when t is nil.
func (t *tracer) caller(ex core.Caller, k *kernel.Kernel) core.Caller {
	if t == nil {
		return ex
	}
	return &timedCaller{inner: ex, k: k, t: t}
}

// shards wraps a shard factory so every shard it builds, replacements
// included, serves through a timedCaller.
func (t *tracer) shards(f core.ShardFactory) core.ShardFactory {
	if t == nil {
		return f
	}
	return func(id int) (*core.Shard, error) {
		sh, err := f(id)
		if err == nil {
			sh.Ex = t.caller(sh.Ex, sh.K)
		}
		return sh, err
	}
}

// registry wraps every API.Impl in reg so each execution is a
// framework.exec span, parented to the runtime.call open on ctx.K.
func (t *tracer) registry(reg *framework.Registry) *framework.Registry {
	if t == nil {
		return reg
	}
	for _, api := range reg.All() {
		inner := api.Impl
		if inner == nil {
			continue
		}
		api.Impl = func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
			if !t.on.Load() {
				return inner(ctx, args)
			}
			s := span{Name: spanExec, Op: -1, VStart: ctx.K.Clock.Now(), Start: now()}
			out, err := inner(ctx, args)
			s.End, s.VEnd = now(), ctx.K.Clock.Now()
			t.mu.Lock()
			defer t.mu.Unlock()
			parent, ok := t.open[ctx.K]
			if !ok {
				t.orphans++
				return out, err
			}
			s.Parent, s.Op = parent, t.spans[parent].Op
			s.ID = int32(len(t.spans))
			t.spans = append(t.spans, s)
			if i, ok := t.sampleOf[parent]; ok && err == nil {
				t.samples[i].reply = framework.Reply{Results: append([]framework.Value(nil), out...), Payloads: make([][]byte, len(out))}
				t.samples[i].hasReply = true
			}
			return out, err
		}
	}
	return reg
}

// timedPlacer is the partition-aware placer with each placement decision
// as a sched.place span. Embedding keeps every other method (MigrateTarget,
// Socket) the placer's own.
type timedPlacer struct {
	sched.PartitionAware
	t *tracer
}

func (p timedPlacer) place(f func() int) int {
	if !p.t.on.Load() {
		return f()
	}
	s := span{Name: spanPlace, Parent: -1, Op: p.t.op.Load(), Start: now()}
	slot := f()
	s.End = now()
	p.t.add(s)
	return slot
}

// Place implements sched.Placer.
func (p timedPlacer) Place(session int, pool []core.PlacementInfo) int {
	return p.place(func() int { return p.PartitionAware.Place(session, pool) })
}

// PlaceKeyed implements sched.KeyedPlacer.
func (p timedPlacer) PlaceKeyed(session int, key uint64, pool []core.PlacementInfo) int {
	return p.place(func() int { return p.PartitionAware.PlaceKeyed(session, key, pool) })
}

// placer wraps pa, or returns it unchanged when t is nil.
func (t *tracer) placer(pa sched.PartitionAware) sched.Placer {
	if t == nil {
		return pa
	}
	return timedPlacer{PartitionAware: pa, t: t}
}

// layerTimes sums one or more traced passes by layer. Self time is a
// span's duration minus the part of it its children cover.
type layerTimes struct {
	ops        int
	opNs       int64 // op spans
	opSelfNs   int64 // op spans minus their runtime.call children
	opChildNs  int64 // the part of op spans their runtime.call children cover
	calls      int
	callSelfNs int64 // runtime.call spans minus their framework.exec children
	callSelfV  vclock.Duration
	execs      int
	execNs     int64
	execV      vclock.Duration
	places     int
	placeNs    int64
	codecCalls int
	codecNs    int64
	orphans    int // framework.exec spans outside any runtime.call
	escaped    int // child spans not contained in their parent
}

func (a *layerTimes) add(b layerTimes) {
	a.ops += b.ops
	a.opNs += b.opNs
	a.opSelfNs += b.opSelfNs
	a.opChildNs += b.opChildNs
	a.calls += b.calls
	a.callSelfNs += b.callSelfNs
	a.callSelfV += b.callSelfV
	a.execs += b.execs
	a.execNs += b.execNs
	a.execV += b.execV
	a.places += b.places
	a.placeNs += b.placeNs
	a.codecCalls += b.codecCalls
	a.codecNs += b.codecNs
	a.orphans += b.orphans
	a.escaped += b.escaped
}

// accounting shows how the op spans split into self and child time.
func (a layerTimes) accounting() map[string]any {
	return map[string]any{
		"ops":                 a.ops,
		"op_us":               float64(a.opNs) / 1e3,
		"op_self_us":          float64(a.opSelfNs) / 1e3,
		"op_child_us":         float64(a.opChildNs) / 1e3,
		"runtime_calls":       a.calls,
		"framework_execs":     a.execs,
		"placements":          a.places,
		"codec_replays":       a.codecCalls,
		"execs_outside_calls": a.orphans,
		"escaped_spans":       a.escaped,
	}
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// summarize folds the pass's spans into layer totals and replays the
// sampled calls through the codec.
func (t *tracer) summarize() layerTimes {
	var lt layerTimes
	opSpan := map[int64]span{}
	callKids := map[int64][][2]int64{}
	execKids := map[int32][][2]int64{}
	execV := map[int32]vclock.Duration{}
	for _, s := range t.spans {
		switch s.Name {
		case spanOp:
			opSpan[s.Op] = s
		case spanExec:
			execKids[s.Parent] = append(execKids[s.Parent], [2]int64{s.Start, s.End})
			execV[s.Parent] += s.VEnd - s.VStart
			lt.execs++
			lt.execNs += s.End - s.Start
			lt.execV += s.VEnd - s.VStart
		case spanPlace:
			lt.places++
			lt.placeNs += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		switch s.Name {
		case spanCall:
			lt.calls++
			kids := execKids[s.ID]
			for _, k := range kids {
				if k[0] < s.Start || k[1] > s.End {
					lt.escaped++
				}
			}
			lt.callSelfNs += s.End - s.Start - covered(s.Start, s.End, kids)
			lt.callSelfV += s.VEnd - s.VStart - execV[s.ID]
			if op, ok := opSpan[s.Op]; ok {
				if s.Start < op.Start || s.End > op.End {
					lt.escaped++
				}
				callKids[s.Op] = append(callKids[s.Op], [2]int64{s.Start, s.End})
			} else {
				lt.escaped++
			}
		case spanPlace:
			if op, ok := opSpan[s.Op]; !ok || s.Start < op.Start || s.End > op.End {
				lt.escaped++
			}
		}
	}
	for id, op := range opSpan {
		d := op.End - op.Start
		c := covered(op.Start, op.End, callKids[id])
		lt.ops++
		lt.opNs += d
		lt.opChildNs += c
		lt.opSelfNs += d - c
	}
	lt.orphans = t.orphans
	for _, s := range t.samples {
		t0 := time.Now()
		b, err := framework.EncodeCall(s.call)
		if err == nil {
			_, err = framework.DecodeCall(b)
		}
		if err == nil && s.hasReply {
			if b, err = framework.EncodeReply(s.reply); err == nil {
				_, err = framework.DecodeReply(b)
			}
		}
		if err == nil {
			lt.codecCalls++
			lt.codecNs += int64(time.Since(t0))
		}
	}
	return lt
}

// write stores the pass's spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
