package apps

import (
	"fmt"
	"sync"
	"time"

	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/vclock"
	"freepart.dev/freepart/internal/workload"
)

// DetectionRequest is one user's image submission to the detection service
// (the long-running server of §4.4.2 / §5.3, generalized to many
// concurrent users).
type DetectionRequest struct {
	// User identifies the submitting client.
	User int
	// Body is the encoded image.
	Body []byte
	// Arrival is the request's arrival time on the virtual timeline. A
	// request admitted after its arrival (the shard was busy) accrues
	// queueing delay; an idle shard's clock advances to the arrival. Zero
	// means "arrived at admission" — no modeled queueing delay.
	Arrival vclock.Duration
}

// reqInterArrival spaces the generated open-loop request stream: clients
// submit on their own schedule regardless of server backlog, which is what
// makes queueing delay visible in the latency percentiles.
const reqInterArrival = 60 * time.Microsecond

// GenDetectionRequests produces a deterministic request stream: n encoded
// images of varying size from a seeded generator, so every serving run over
// the same seed sees byte-identical inputs.
func GenDetectionRequests(seed int64, n int) []DetectionRequest {
	gen := workload.New(seed)
	out := make([]DetectionRequest, n)
	for i := range out {
		// Cycle image sizes so the latency distribution has real spread
		// (percentiles over identical requests would collapse to one
		// value). The period 5 is coprime to every shard count in the
		// scaling sweep (1/2/4/8), so round-robin placement never pins one
		// size class to one shard.
		size := 12 + (i%5)*3
		out[i] = DetectionRequest{
			User:    i + 1,
			Body:    gen.EncodedImage(size, size, 1),
			Arrival: vclock.Duration(i+1) * reqInterArrival,
		}
	}
	return out
}

// DetectionResult is the service's answer to one request.
type DetectionResult struct {
	// User echoes the requesting client.
	User int
	// Objects is the detection count.
	Objects int
	// Err is set when the request failed (e.g. a malicious image crashed
	// the loading agent); other requests are unaffected.
	Err error
}

// DetectionServer is the session-sharded detection service: one classifier
// file built once and loaded on every shard, with requests fanned out
// across shards through sessions.
type DetectionServer struct {
	// Ex is the serving pool.
	Ex *core.Executor

	mu     sync.Mutex
	models map[int]core.Handle // per-shard loaded model, keyed by slot id
	// classifier is the model file every shard loads. FS.WriteFile keeps
	// the buffer it is given, so every shard reads these same bytes.
	classifier []byte
}

// loadModel writes the classifier into sh's filesystem and loads
// it, recording the resulting per-shard handle. The model belongs to the
// shard, not to a session: a load from inside a session's job (the defense
// drill reprovisions a shard in place) runs outside that session's scope,
// so finishing the session does not release the model.
func (srv *DetectionServer) loadModel(sh *core.Shard) error {
	if sh.Rt != nil {
		defer sh.Rt.SetSessionScope(sh.Rt.SessionScope())
		sh.Rt.SetSessionScope(-1)
	}
	sh.K.FS.WriteFile("/srv/model.xml", srv.classifier)
	h, _, err := sh.Ex.Call("cv.CascadeClassifier", framework.Str("/srv/model.xml"))
	if err != nil {
		return fmt.Errorf("apps: shard %d model load: %w", sh.ID, err)
	}
	if len(h) == 0 {
		return fmt.Errorf("apps: shard %d model load returned no handle", sh.ID)
	}
	srv.mu.Lock()
	srv.models[sh.ID] = h[0]
	srv.mu.Unlock()
	return nil
}

// Reload provisions one shard with the classifier — the same
// hook body ProvisionDetection installs as OnReplace. Exported so callers
// composing their own replacement chain (the defense drill re-arms its
// sensors on every replacement shard, then still needs the model loaded)
// can keep the load step in the chain.
func (srv *DetectionServer) Reload(sh *core.Shard) error { return srv.loadModel(sh) }

// model returns the classifier handle currently loaded on shard id.
func (srv *DetectionServer) model(id int) core.Handle {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.models[id]
}

// ProvisionDetection builds the service on an executor: the classifier
// bytes are built once, written into every shard's filesystem without a
// copy, and each shard loads the model into its own runtime. The same
// load runs again on every replacement shard and on every shard the
// control plane grows into the pool (via the executor's OnReplace hook),
// so a failed-over or newly scaled shard serves with its model in place
// before its first request.
func ProvisionDetection(ex *core.Executor) (*DetectionServer, error) {
	srv := &DetectionServer{Ex: ex, models: make(map[int]core.Handle), classifier: simcv.EncodeClassifier(150, 4)}
	for i := 0; i < ex.Shards(); i++ {
		if err := srv.loadModel(ex.Shard(i)); err != nil {
			return nil, err
		}
	}
	ex.SetOnReplace(srv.loadModel)
	return srv, nil
}

// Serve answers every request. Sessions are opened in request order (so
// shard placement is round-robin and deterministic), then each shard with
// requests drains them in arrival order, finishing each request's session
// once it is answered, so the shard releases the request's objects and
// its checkpoints. Per-shard FIFO matters for determinism, not just
// fairness: a request's virtual latency includes work the previous
// request on that shard left behind (its release list rides on this
// request's calls), so reordering within a shard would shuffle nanoseconds
// between adjacent samples. Shards serve concurrently with each other: the
// first busy shard on the calling goroutine, every other busy shard on a
// goroutine of its own, and an idle shard starts nothing. Results come
// back in request order.
func (srv *DetectionServer) Serve(reqs []DetectionRequest) []DetectionResult {
	byShard := make([][]int, srv.Ex.Shards())
	sessions := make([]*core.Session, len(reqs))
	for i := range reqs {
		sessions[i] = srv.Ex.Session()
		id := sessions[i].Shard().ID
		byShard[id] = append(byShard[id], i)
	}
	results := make([]DetectionResult, len(reqs))
	fanOut(byShard, detectBatch{srv, sessions, reqs, results})
	return results
}

// detectBatch is one Serve call, which fanOut serves shard by shard.
type detectBatch struct {
	srv      *DetectionServer
	sessions []*core.Session
	reqs     []DetectionRequest
	results  []DetectionResult
}

// serveSlot answers one shard's requests in order, finishing each
// request's session once it is answered.
func (b detectBatch) serveSlot(_ int, queue []int) {
	for _, i := range queue {
		b.results[i] = b.srv.serveOne(b.sessions[i], i, b.reqs[i])
		b.sessions[i].Finish()
	}
}

// slotServer serves one shard slot's queue of work.
type slotServer interface {
	serveSlot(slot int, queue []int)
}

// fanOut serves every busy slot of queues concurrently with the others:
// the first busy slot on the calling goroutine, each other busy slot on a
// goroutine of its own, and an idle slot gets nothing. It returns once every
// busy slot is served. The server is passed by value, so a call with one
// busy slot allocates nothing.
func fanOut[S slotServer](queues [][]int, srv S) {
	first := -1
	var wg *sync.WaitGroup // made only when a second slot is busy
	for id, queue := range queues {
		switch {
		case len(queue) == 0:
		case first < 0:
			first = id
		default:
			if wg == nil {
				wg = new(sync.WaitGroup)
			}
			wg.Add(1)
			go serveSlotDone(srv, wg, id, queue)
		}
	}
	if first >= 0 {
		srv.serveSlot(first, queues[first])
	}
	if wg != nil {
		wg.Wait()
	}
}

// serveSlotDone serves one slot and marks it done in wg. Started as a named
// function, a slot's goroutine makes one allocation, its argument block.
func serveSlotDone[S slotServer](srv S, wg *sync.WaitGroup, slot int, queue []int) {
	defer wg.Done()
	srv.serveSlot(slot, queue)
}

// ServeSeq answers every request strictly sequentially, in request order,
// on the calling goroutine. Sessions are opened exactly as Serve opens
// them (request order, round-robin placement), so the only difference is
// scheduling: no two requests are ever in flight at once. That total order
// is what the gray-failure campaign and soaks need — with hedging or live
// pool-median suspicion scoring enabled, shards read each other's state,
// and only a sequential schedule makes those cross-shard reads (and the
// chaos draws behind them) a pure function of the request list. The
// executor spawns no goroutines of its own, so under ServeSeq the entire
// run is deterministic end to end, cross-shard couplings included. Each
// session finishes once its request is answered, as under Serve.
func (srv *DetectionServer) ServeSeq(reqs []DetectionRequest) []DetectionResult {
	sessions := make([]*core.Session, len(reqs))
	for i := range reqs {
		sessions[i] = srv.Ex.Session()
	}
	results := make([]DetectionResult, len(reqs))
	for i := range reqs {
		results[i] = srv.serveOne(sessions[i], i, reqs[i])
		sessions[i].Finish()
	}
	return results
}

// serveOne runs one detection invocation on the request's session shard:
// store the upload in the shard's filesystem, decode it, detect. The
// request's arrival stamp feeds the admission path, so its recorded
// latency is queueing delay plus service time.
func (srv *DetectionServer) serveOne(s *core.Session, i int, rq DetectionRequest) DetectionResult {
	return srv.serveOnePre(s, i, rq, nil)
}

// serveOnePre is serveOne with an optional hook run on the serving shard
// before the pipeline (inside the admitted invocation, so anything it
// charges lands on the request's latency). The partition plane uses it for
// warm/cold bookkeeping; a nil hook is exactly serveOne.
func (srv *DetectionServer) serveOnePre(s *core.Session, i int, rq DetectionRequest, pre func(sh *core.Shard)) DetectionResult {
	res := DetectionResult{User: rq.User}
	arrival := rq.Arrival
	if arrival <= 0 {
		arrival = -1 // no stamp: arrives at admission
	}
	res.Err = s.DoAt(arrival, func(sh *core.Shard) error {
		if pre != nil {
			pre(sh)
		}
		path := fmt.Sprintf("/srv/req-%d.img", i)
		sh.K.FS.WriteFile(path, rq.Body)
		img, _, err := sh.Ex.Call("cv.imread", framework.Str(path))
		if err != nil {
			// Availability first (§4.4.2): revive the shard's crashed
			// agent so the next request on this shard is served.
			if sh.Rt != nil {
				_ = sh.Rt.RestartDead()
			}
			return err
		}
		_, plain, err := sh.Ex.Call("cv.CascadeClassifier.detectMultiScale",
			srv.model(sh.ID).Value(), img[0].Value())
		if err != nil {
			if sh.Rt != nil {
				_ = sh.Rt.RestartDead()
			}
			return err
		}
		if len(plain) > 0 {
			res.Objects = int(plain[0].Int)
		}
		return nil
	})
	return res
}

// Served counts successful results.
func Served(results []DetectionResult) int {
	n := 0
	for _, r := range results {
		if r.Err == nil {
			n++
		}
	}
	return n
}
