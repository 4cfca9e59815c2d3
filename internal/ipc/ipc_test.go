package ipc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"freepart.dev/freepart/internal/vclock"
)

// echoConn connects to an agent that echoes payloads with kind prepended,
// charging clk (which may be nil) at byteCost.
func echoConn(clk *vclock.Clock) *Conn {
	return NewConn(clk, byteCost, func(kind uint32, p []byte) ([]byte, error) {
		return append([]byte{byte(kind)}, p...), nil
	})
}

// byteCost prices a round trip at 1µs and each wire byte at 1ns, so the
// virtual time calls charge reads off how many round trips they made and
// how many bytes they moved.
var byteCost = vclock.CostModel{IPCRoundTrip: vclock.Duration(time.Microsecond), CopyPerBytePS: 1000}

// wireTime is the virtual time byteCost charges for calls round trips that
// move n wire bytes between them: requests, and responses with their tags.
func wireTime(calls, n int) vclock.Duration {
	return vclock.Duration(calls)*byteCost.IPCRoundTrip + byteCost.CopyCost(n)
}

func TestCallRoundTrip(t *testing.T) {
	clk := vclock.New()
	c := echoConn(clk)
	out, err := c.Call(7, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, append([]byte{7}, []byte("abc")...)) {
		t.Fatalf("out = %v", out)
	}
	// One round trip: 3 request bytes, and a response of its tag and 4
	// bytes.
	if got, want := clk.Now(), wireTime(1, 3+5); got != want {
		t.Fatalf("call charged %v, want %v", got, want)
	}
}

func TestCallApplicationError(t *testing.T) {
	c := NewConn(nil, vclock.CostModel{}, func(kind uint32, p []byte) ([]byte, error) {
		return nil, fmt.Errorf("bad input %q", p)
	})
	_, err := c.Call(1, []byte("x"))
	if err == nil || err.Error() != `bad input "x"` {
		t.Fatalf("err = %v", err)
	}
}

func TestCallCrashPropagates(t *testing.T) {
	c := NewConn(nil, vclock.CostModel{}, func(kind uint32, p []byte) ([]byte, error) {
		return nil, fmt.Errorf("%w: segfault in imread", ErrAgentCrashed)
	})
	_, err := c.Call(1, nil)
	if !errors.Is(err, ErrAgentCrashed) {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryDedup(t *testing.T) {
	// The server executes a side-effecting handler; a Retry with the same
	// sequence must be answered from the cache without re-executing —
	// the exactly-once guarantee of §4.3.
	var executions int
	c := NewConn(nil, vclock.CostModel{}, func(kind uint32, p []byte) ([]byte, error) {
		executions++
		return []byte("done"), nil
	})

	out, err := c.Call(1, []byte("req"))
	if err != nil || string(out) != "done" {
		t.Fatalf("call = %q, %v", out, err)
	}
	seq := c.LastSeq()
	out, err = c.CallSeq(seq, 1, []byte("req"))
	if err != nil || string(out) != "done" {
		t.Fatalf("retry = %q, %v", out, err)
	}
	if executions != 1 {
		t.Fatalf("handler executed %d times, want 1 (exactly-once)", executions)
	}
}

func TestRetryAfterCrashReexecutes(t *testing.T) {
	// First attempt crashes before completing; the retry must execute —
	// the at-least-once path of §4.4.2.
	var attempts int
	c := NewConn(nil, vclock.CostModel{}, func(kind uint32, p []byte) ([]byte, error) {
		attempts++
		if attempts == 1 {
			return nil, fmt.Errorf("%w: first try dies", ErrAgentCrashed)
		}
		return []byte("ok"), nil
	})

	_, err := c.Call(5, nil)
	if !errors.Is(err, ErrAgentCrashed) {
		t.Fatalf("first call err = %v", err)
	}
	out, err := c.CallSeq(c.LastSeq(), 5, nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("retry = %q, %v", out, err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

func TestCallChargesVirtualTime(t *testing.T) {
	clk := vclock.New()
	c := NewConn(clk, vclock.Default(), func(kind uint32, p []byte) ([]byte, error) { return p, nil })
	_, _ = c.Call(1, make([]byte, 16))
	afterSmall := clk.Now()
	_, _ = c.Call(1, make([]byte, 1<<20))
	afterBig := clk.Now() - afterSmall
	if afterBig <= afterSmall {
		t.Fatalf("1MiB call (%v) should cost more than 16B call (%v)", afterBig, afterSmall)
	}
}

// TestDedupCacheEviction: the dedup cache holds the responses of the last
// doneCap completed sequences and no more. A retry of any of them, oldest
// first or newest first, is answered from the cache, application errors
// included, without running the handler again; a retry of an evicted one
// runs it again.
func TestDedupCacheEviction(t *testing.T) {
	runs := 0
	c := NewConn(nil, vclock.CostModel{}, func(kind uint32, p []byte) ([]byte, error) {
		runs++
		if p[0]%3 == 0 {
			return nil, fmt.Errorf("error %d", p[0])
		}
		return p, nil
	})
	c.doneCap = 4
	var seqs []uint64
	for i := 0; i < 10; i++ {
		seq := c.NextSeq()
		_, _ = c.CallSeq(seq, 0, []byte{byte(i)})
		seqs = append(seqs, seq)
	}
	c.mu.Lock()
	held := len(c.done)
	c.mu.Unlock()
	if held > 4 {
		t.Fatalf("dedup cache grew to %d entries, cap 4", held)
	}
	check := func(i int) {
		t.Helper()
		out, err := c.CallSeq(seqs[i], 0, []byte{0xff})
		if i%3 == 0 {
			if err == nil || err.Error() != fmt.Sprintf("error %d", i) {
				t.Fatalf("retry of seq %d = %q, %v; want its cached error", seqs[i], out, err)
			}
		} else if err != nil || !bytes.Equal(out, []byte{byte(i)}) {
			t.Fatalf("retry of seq %d = %q, %v; want its cached response", seqs[i], out, err)
		}
	}
	for _, i := range []int{6, 7, 8, 9, 9, 8, 7, 6} {
		check(i)
	}
	if runs != 10 {
		t.Fatalf("handler ran %d times; want 10, the cache answering all 8 retries", runs)
	}
	if _, err := c.CallSeq(seqs[5], 0, []byte{5}); err != nil || runs != 11 {
		t.Fatalf("retry of an evicted sequence: %v, handler ran %d times; want it run an 11th time", err, runs)
	}
}

// TestDedupCacheWarmAllocs: once the dedup cache holds doneCap responses,
// remembering one more takes the oldest one's slot and allocates nothing.
func TestDedupCacheWarmAllocs(t *testing.T) {
	c := NewConn(nil, vclock.CostModel{}, nil)
	body := []byte("reply")
	seq := uint64(0)
	remember := func() {
		seq++
		c.remember(seq, tagResult, body)
	}
	for range c.doneCap {
		remember()
	}
	if allocs := testing.AllocsPerRun(1000, remember); allocs != 0 {
		t.Fatalf("remembering into a warm cache made %v allocs, want 0", allocs)
	}
	if e, ok := c.lookup(seq - uint64(c.doneCap) + 1); !ok || !bytes.Equal(e.body, body) {
		t.Fatalf("the oldest of the last %d sequences is not cached", c.doneCap)
	}
	if _, ok := c.lookup(seq - uint64(c.doneCap)); ok {
		t.Fatalf("%d sequences ago is still cached, past the cap of %d", c.doneCap, c.doneCap)
	}
}

func TestCallSeqProperty(t *testing.T) {
	// Sequence numbers strictly increase and responses match requests.
	c := echoConn(nil)
	prev := uint64(0)
	f := func(b byte) bool {
		out, err := c.Call(uint32(b), []byte{b})
		if err != nil {
			return false
		}
		seq := c.LastSeq()
		ok := seq > prev && len(out) == 2 && out[0] == b && out[1] == b
		prev = seq
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- fault injection ---

// scriptedInjector fails exactly the first request (or response) it sees.
type scriptedInjector struct {
	mu        sync.Mutex
	reqFault  MessageFault
	respFault MessageFault
	reqUsed   bool
	respUsed  bool
}

func (s *scriptedInjector) RequestFault(seq uint64, payload []byte) MessageFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reqUsed {
		return MessageFault{}
	}
	s.reqUsed = true
	return s.reqFault
}

func (s *scriptedInjector) ResponseFault(seq uint64, payload []byte) MessageFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.respUsed {
		return MessageFault{}
	}
	s.respUsed = true
	return s.respFault
}

// countingConn connects to an agent that answers "ok" and counts how many
// times it executed a request.
func countingConn(inject Injector) (*Conn, *int) {
	executions := new(int)
	c := NewConn(nil, vclock.CostModel{}, func(kind uint32, p []byte) ([]byte, error) {
		*executions++
		return []byte("ok"), nil
	})
	c.SetInjector(inject)
	return c, executions
}

func TestCorruptRequestDetectedThenRetried(t *testing.T) {
	c, executions := countingConn(&scriptedInjector{reqFault: MessageFault{Corrupt: true}})
	_, err := c.Call(1, []byte("abc"))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	out, err := c.CallSeq(c.LastSeq(), 1, []byte("abc"))
	if err != nil || string(out) != "ok" {
		t.Fatalf("retry = %q, %v", out, err)
	}
	if *executions != 1 {
		t.Fatalf("handler ran %d times, want 1 (corrupt request must not dispatch)", *executions)
	}
}

func TestDroppedResponseTimeoutThenDedupAnswers(t *testing.T) {
	// The handler executes, but the response is lost. The retry under the
	// same sequence must be answered from the dedup cache: exactly-once
	// across message loss.
	c, executions := countingConn(&scriptedInjector{respFault: MessageFault{Drop: true}})
	_, err := c.Call(1, []byte("abc"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	out, err := c.CallSeq(c.LastSeq(), 1, []byte("abc"))
	if err != nil || string(out) != "ok" {
		t.Fatalf("retry = %q, %v", out, err)
	}
	if *executions != 1 {
		t.Fatalf("handler ran %d times, want 1 (dedup must absorb the retry)", *executions)
	}
}

func TestDuplicatedRequestAbsorbedByDedup(t *testing.T) {
	c, executions := countingConn(&scriptedInjector{reqFault: MessageFault{Duplicate: true}})
	out, err := c.Call(1, []byte("abc"))
	if err != nil || string(out) != "ok" {
		t.Fatalf("call = %q, %v", out, err)
	}
	out, err = c.Call(1, []byte("next"))
	if err != nil || string(out) != "ok" {
		t.Fatalf("second call = %q, %v", out, err)
	}
	if *executions != 2 {
		t.Fatalf("handler ran %d times, want 2 (duplicate must not re-execute)", *executions)
	}
}

func TestDuplicateDeliveryAfterCrashServedBeforeReturn(t *testing.T) {
	// A duplicated request whose first delivery kills the agent. The second
	// delivery reaches the dead agent before Call returns, so nothing it
	// does can land after the caller has moved on to restart and retry.
	runs := 0
	dead := false
	c := NewConn(nil, vclock.CostModel{}, func(kind uint32, p []byte) ([]byte, error) {
		runs++
		if dead {
			return nil, fmt.Errorf("%w: process is not running", ErrAgentCrashed)
		}
		if runs == 1 {
			dead = true
			return nil, fmt.Errorf("%w: injected write fault", ErrAgentCrashed)
		}
		return []byte("ok"), nil
	})
	c.SetInjector(&scriptedInjector{reqFault: MessageFault{Duplicate: true}})
	seq := c.NextSeq()
	if _, err := c.CallSeq(seq, 1, []byte("step")); !errors.Is(err, ErrAgentCrashed) {
		t.Fatalf("err = %v, want ErrAgentCrashed", err)
	}
	if runs != 2 {
		t.Fatalf("handler ran %d times by the time Call returned, want 2", runs)
	}
	dead = false // the supervisor revives the agent
	out, err := c.CallSeq(seq, 1, []byte("step"))
	if err != nil || string(out) != "ok" {
		t.Fatalf("retry = %q, %v", out, err)
	}
	if runs != 3 {
		t.Fatalf("retry ran the handler %d times, want 1", runs-2)
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	c, executions := countingConn(nil)
	c.Close()
	if _, err := c.Call(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if *executions != 0 {
		t.Fatalf("handler ran %d times on a closed connection", *executions)
	}
}

func TestDroppedRequestChargesVirtualTimeout(t *testing.T) {
	clk := vclock.New()
	c := NewConn(clk, vclock.Default(), func(kind uint32, p []byte) ([]byte, error) { return p, nil })
	c.SetInjector(&scriptedInjector{reqFault: MessageFault{Drop: true}})
	_, err := c.Call(1, []byte("abc"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if clk.Now() < vclock.Default().IPCTimeout {
		t.Fatalf("clock = %v, want >= IPCTimeout (%v)", clk.Now(), vclock.Default().IPCTimeout)
	}
}

// --- concurrent callers on one connection ---

func TestPipelinedOverlappingCalls(t *testing.T) {
	// Many goroutines issue calls concurrently on ONE connection. The agent
	// serves them one at a time, and every caller must get exactly its own
	// echo back.
	clk := vclock.New()
	c := echoConn(clk)
	const callers = 16
	const perCaller = 25
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				payload := []byte{byte(g), byte(i)}
				out, err := c.Call(uint32(g), payload)
				if err != nil {
					errs[g] = err
					return
				}
				if len(out) != 3 || out[0] != byte(g) || out[1] != byte(g) || out[2] != byte(i) {
					errs[g] = fmt.Errorf("caller %d got foreign response %v", g, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
	}
	// Each call is one round trip of 2 request bytes and a response of its
	// tag and 3 bytes.
	if got, want := clk.Now(), wireTime(callers*perCaller, callers*perCaller*(2+4)); got != want {
		t.Fatalf("calls charged %v, want %v", got, want)
	}
}

func TestPipelinedRetrySemanticsPreserved(t *testing.T) {
	// Overlapping callers plus a dropped response: the victim retries under
	// its original sequence and is answered from the dedup cache while other
	// callers keep flowing.
	c, executions := countingConn(&scriptedInjector{respFault: MessageFault{Drop: true}})

	seq := c.NextSeq()
	_, err := c.CallSeq(seq, 1, []byte("victim"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(2, []byte("bystander")); err != nil {
				t.Errorf("bystander: %v", err)
			}
		}()
	}
	out, err := c.CallSeq(seq, 1, []byte("victim"))
	wg.Wait()
	if err != nil || string(out) != "ok" {
		t.Fatalf("retry = %q, %v", out, err)
	}
	if *executions != 5 {
		t.Fatalf("handler ran %d times, want 5 (victim once + 4 bystanders)", *executions)
	}
}

// TestResponseTagChargedAsWireByte: a response's status tag travels beside
// its body, but is checksummed and charged as one wire byte, also when the
// response is damaged in transit; the retry is answered from the cache.
func TestResponseTagChargedAsWireByte(t *testing.T) {
	clk := vclock.New()
	executions := 0
	c := NewConn(clk, byteCost, func(kind uint32, p []byte) ([]byte, error) {
		executions++
		return []byte("ok"), nil
	})
	c.SetInjector(&scriptedInjector{respFault: MessageFault{Corrupt: true}})
	seq := c.NextSeq()
	if _, err := c.CallSeq(seq, 1, []byte("abc")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	out, err := c.CallSeq(seq, 1, []byte("abc"))
	if err != nil || string(out) != "ok" {
		t.Fatalf("retry = %q, %v", out, err)
	}
	if executions != 1 {
		t.Fatalf("handler ran %d times, want 1", executions)
	}
	if got, want := clk.Now(), wireTime(2, 2*len("abc=ok")); got != want {
		t.Fatalf("two attempts charged %v, want %v", got, want)
	}
}

// TestDedupAnswersApplicationError: a retried sequence whose answer was an
// application error gets that error again from the dedup cache, not a
// success, and the handler does not run again.
func TestDedupAnswersApplicationError(t *testing.T) {
	clk := vclock.New()
	executions := 0
	c := NewConn(clk, byteCost, func(kind uint32, p []byte) ([]byte, error) {
		executions++
		if executions > 1 {
			return []byte("late"), nil
		}
		return nil, errors.New("bad input")
	})
	seq := c.NextSeq()
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := c.CallSeq(seq, 1, []byte("x")); err == nil || err.Error() != "bad input" {
			t.Fatalf("attempt %d: err = %v, want bad input", attempt, err)
		}
	}
	if executions != 1 {
		t.Fatalf("handler ran %d times, want 1", executions)
	}
	if got, want := clk.Now(), wireTime(2, 2*len("x!bad input")); got != want {
		t.Fatalf("two attempts charged %v, want %v", got, want)
	}
}
