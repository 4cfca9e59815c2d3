package apps

import (
	"sync"
	"time"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/partition"
	"freepart.dev/freepart/internal/vclock"
	"freepart.dev/freepart/internal/workload"
)

// PartitionConfig arms the partition-aware data plane on a serving surface:
// partition metadata to accumulate traffic facts into, a placement memory
// to score and account warm-cache affinity, and the cost constants that
// price a cold landing. The zero value (and any config with a nil Memory)
// is the disabled plane: no touches, no charges, no metrics — serving is
// bit-identical to the pre-partition path.
type PartitionConfig struct {
	// Meta accumulates per-partition traffic facts (nil: none kept).
	Meta *partition.Meta
	// Memory is the per-session placement history; nil disables warm/cold
	// accounting and pricing entirely.
	Memory *partition.PlacementMemory
	// Cost prices a cold landing (ColdMissCost over WorkingSet bytes).
	Cost vclock.CostModel
	// WorkingSet is the per-session working set in bytes re-faulted on a
	// cold landing (default 8 KiB when zero).
	WorkingSet int
	// Compute is the bytes actually computed over per visit (default:
	// WorkingSet). Point-query planes touch a small slice of a large
	// resident working set, so a cold landing (re-fault the whole set) can
	// cost several times the warm service — which is exactly the spread
	// that makes placement matter.
	Compute int
	// Class tags the traffic in the partition metadata's class
	// distribution.
	Class string
}

// enabled reports whether the plane does anything at all.
func (c PartitionConfig) enabled() bool { return c.Memory != nil || c.Meta != nil }

// workingSet returns the effective working-set size.
func (c PartitionConfig) workingSet() int {
	if c.WorkingSet <= 0 {
		return 8 << 10
	}
	return c.WorkingSet
}

// compute returns the effective per-visit compute size.
func (c PartitionConfig) compute() int {
	if c.Compute <= 0 {
		return c.workingSet()
	}
	return c.Compute
}

// touch runs the warm/cold bookkeeping for one invocation landing on sh:
// the placement memory records the landing, a cold landing pays the
// re-fault cost on the shard's clock and counts a miss, a warm one counts a
// hit. Disabled configs (nil Memory) do nothing — not even a clock read —
// so the disabled plane stays bit-identical to the plain serving path.
func (c PartitionConfig) touch(ex *core.Executor, sh *core.Shard, key uint64) {
	if c.Memory != nil {
		if c.Memory.Touch(key, sh.ID, sh.Gen, sh.K.Clock.Now()) {
			ex.Metrics().Update(func(m *metrics.Snapshot) { m.WarmHits++ })
		} else {
			ex.Metrics().Update(func(m *metrics.Snapshot) { m.ColdMisses++ })
			sh.K.Clock.Advance(c.Cost.ColdMissCost(c.workingSet()))
		}
	}
	if c.Meta != nil {
		c.Meta.Record(key, int64(c.workingSet()), c.Class)
	}
}

// ServeSeqKeyed answers every request strictly sequentially like ServeSeq,
// but opens each request's session with a session key (keys[i] — the
// returning user's stable identity) and runs the partition plane's
// warm/cold bookkeeping on every landing. With a disabled config and no
// keyed placement hook installed, the run is bit-identical to ServeSeq:
// clocks, events, metrics, and injection logs all match, which is the
// zero-cost guard the partition soak pins down.
func (srv *DetectionServer) ServeSeqKeyed(reqs []DetectionRequest, keys []uint64, cfg PartitionConfig) []DetectionResult {
	sessions := make([]*core.Session, len(reqs))
	for i := range reqs {
		sessions[i] = srv.Ex.SessionKeyed(0, 1, keys[i%len(keys)])
	}
	results := make([]DetectionResult, len(reqs))
	for i := range reqs {
		if cfg.enabled() {
			key := keys[i%len(keys)]
			pre := func(sh *core.Shard) { cfg.touch(srv.Ex, sh, key) }
			results[i] = srv.serveOnePre(sessions[i], i, reqs[i], pre)
		} else {
			results[i] = srv.serveOne(sessions[i], i, reqs[i])
		}
		sessions[i].Finish()
	}
	return results
}

// PartitionVisit is one returning user's visit to the partitioned data
// plane: a short-lived session carrying the user's stable key.
type PartitionVisit struct {
	// Key is the user's stable session key.
	Key uint64
	// Seq is the visit's global order.
	Seq int
	// Arrival is the visit's arrival on the virtual timeline.
	Arrival vclock.Duration
}

// visitInterArrival spaces the open-loop visit stream tightly enough that
// cold-miss service inflation turns into visible queueing delay.
const visitInterArrival = 12 * time.Microsecond

// GenPartitionVisitsSpaced draws a deterministic Zipf-skewed visit
// schedule: n visits over a universe of users keys with skew s, arrivals
// gap apart (gap <= 0 uses the default spacing), so a benchmark can dial
// the offered load against the pool's service capacity. Same arguments ⇒
// byte-equal schedule.
func GenPartitionVisitsSpaced(seed int64, users, n int, s float64, gap vclock.Duration) []PartitionVisit {
	if gap <= 0 {
		gap = visitInterArrival
	}
	keys := workload.ZipfPopulation{Users: users, S: s, Seed: seed}.Keys(n)
	out := make([]PartitionVisit, n)
	for i, k := range keys {
		out[i] = PartitionVisit{Key: k, Seq: i, Arrival: vclock.Duration(i+1) * gap}
	}
	return out
}

// PartitionResult is one served visit: the value is a pure function of
// (key, seq) — independent of where the visit ran — so a rebalance drill
// changes virtual cost, never results. Byte-equality of result sets across
// drill/no-drill runs is the drill's safety check.
type PartitionResult struct {
	Key   uint64
	Value uint64
	Err   error
}

// visitValue digests (key, seq) with FNV-1a.
func visitValue(key uint64, seq int) uint64 {
	h := uint64(14695981039346656037)
	x := key
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * 1099511628211
		x >>= 8
	}
	x = uint64(seq)
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * 1099511628211
		x >>= 8
	}
	return h
}

// PartitionServer is the lightweight partitioned data plane the Zipf-scale
// benchmark runs on: every visit is a keyed session invoking one
// virtual-cost job (fixed dispatch + working-set compute, plus the
// cold-miss re-fault when the landing is cold). Hot keys can be given
// long-lived resident sessions — the live state a rebalance drill migrates
// through the checkpoint log. Serving is strictly sequential so runs replay
// byte-equal.
type PartitionServer struct {
	// Ex is the serving pool.
	Ex *core.Executor
	// Cfg arms the partition plane.
	Cfg PartitionConfig

	mu       sync.Mutex
	resident map[uint64]*core.Session
}

// NewPartitionServer builds the data plane over ex.
func NewPartitionServer(ex *core.Executor, cfg PartitionConfig) *PartitionServer {
	return &PartitionServer{Ex: ex, Cfg: cfg, resident: make(map[uint64]*core.Session)}
}

// Resident opens a long-lived keyed session per key, in the given order.
// Visits for these keys reuse the session instead of opening one — the
// model of a hot user who never disconnects — and these sessions are what
// a mid-window rebalance drill migrates live.
func (srv *PartitionServer) Resident(keys []uint64) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, k := range keys {
		if _, ok := srv.resident[k]; ok {
			continue
		}
		srv.resident[k] = srv.Ex.SessionKeyed(0, 1, k)
	}
}

// FinishResident finishes every resident session.
func (srv *PartitionServer) FinishResident() {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, s := range srv.resident {
		s.Finish()
	}
}

// ServeVisits serves the visit stream strictly sequentially. Before visit
// index drillAt is served, drill runs once (a control-plane barrier — pass
// drillAt <= 0 for no drill). Each non-resident visit opens its own keyed
// session (placement decides where the returning user lands) and finishes
// it after the single invocation; resident keys serve on their standing
// session. Results are in visit order.
func (srv *PartitionServer) ServeVisits(visits []PartitionVisit, drillAt int, drill func()) []PartitionResult {
	results := make([]PartitionResult, len(visits))
	for i, v := range visits {
		if drill != nil && i == drillAt {
			drill()
		}
		srv.mu.Lock()
		s, isResident := srv.resident[v.Key]
		srv.mu.Unlock()
		if !isResident {
			s = srv.Ex.SessionKeyed(0, 1, v.Key)
		}
		results[i] = srv.serveVisit(s, v)
		if !isResident {
			s.Finish()
		}
	}
	return results
}

// serveVisit runs one visit on its session's shard.
func (srv *PartitionServer) serveVisit(s *core.Session, v PartitionVisit) PartitionResult {
	res := PartitionResult{Key: v.Key}
	arrival := v.Arrival
	if arrival <= 0 {
		arrival = -1
	}
	cfg := srv.Cfg
	res.Err = s.DoAt(arrival, func(sh *core.Shard) error {
		cfg.touch(srv.Ex, sh, v.Key)
		sh.K.Clock.Advance(cfg.Cost.APIFixed + cfg.Cost.ComputeCost(cfg.compute(), 1))
		res.Value = visitValue(v.Key, v.Seq)
		return nil
	})
	return res
}
