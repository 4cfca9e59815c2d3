// Package ipc implements the inter-process communication substrate: a
// request/response RPC layer between the host and one agent process with
// exactly-once delivery, checksummed message framing, and byte accounting.
//
// The paper's prototype moves API requests between the host and agent
// processes over shared-memory ring buffers synchronized with futexes
// (§4.3, footnote 8), and prices each crossing by its round trip and the
// bytes it copies (Tables 9 and 12). This package keeps exactly that price
// and the paper's RPC semantics — exactly-once in normal operation (§4.3)
// and at-least-once across agent restarts (§4.4.2) — but serves each
// request in-line on the caller's goroutine: the agent drains its ring one
// request at a time, so a call is the agent side run under the
// connection's lock, and nothing in a call depends on thread scheduling or
// the wall clock.
package ipc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"freepart.dev/freepart/internal/vclock"
)

// ErrAgentCrashed is returned by Call when the serving side crashed while
// executing the request. The caller (FreePart's restart supervisor) decides
// whether to retry, giving at-least-once semantics.
var ErrAgentCrashed = errors.New("ipc: agent crashed during request")

// ErrTimeout is returned by a call when fault injection dropped a message;
// the caller has been charged the virtual IPCTimeout. The request may or may
// not have executed; re-issuing it under the same sequence number is safe
// because the server-side dedup cache absorbs duplicates.
var ErrTimeout = errors.New("ipc: call timed out")

// ErrCorrupt is returned by a call when a message failed its checksum — the
// payload was damaged in transit. The request was not executed (corrupt
// requests are rejected before dispatch), so re-issuing it is safe.
var ErrCorrupt = errors.New("ipc: message corrupted in transit")

// ErrClosed is returned by calls on a closed connection.
var ErrClosed = errors.New("ipc: connection closed")

// Handler executes one request and returns the response payload.
// Returning an error wrapped around ErrAgentCrashed signals that the agent
// process died mid-request.
type Handler func(kind uint32, payload []byte) ([]byte, error)

// Message is one framed transfer between host and agent.
type Message struct {
	// Seq is the request sequence number.
	Seq uint64
	// Kind is an application tag on requests (e.g. API id) and a response
	// tag (respKind*) on responses.
	Kind uint32
	// Sum is an FNV-1a checksum of the message's wire bytes (its Tag, if
	// any, then its Payload) as the sender intended them, letting the
	// receiver detect in-transit corruption.
	Sum uint64
	// Tag is the status byte a successful response sends ahead of its
	// Payload: tagResult or tagError. Requests and crash or corruption
	// notices have none (0). The tag travels, is checksummed and is
	// charged as one more wire byte, but is kept beside the body so a
	// reply is never copied to prefix it.
	Tag byte
	// Payload is the marshalled body.
	Payload []byte
}

// Status tags of a successful response.
const (
	tagResult byte = '='
	tagError  byte = '!'
)

// size is the message's length on the wire.
func (m Message) size() int {
	if m.Tag != 0 {
		return 1 + len(m.Payload)
	}
	return len(m.Payload)
}

// corrupted returns m with one byte of its wire bytes flipped, the tag
// folded into the payload so the damage can land on either.
func (m Message) corrupted() Message {
	wire := m.Payload
	if m.Tag != 0 {
		wire = append([]byte{m.Tag}, m.Payload...)
	}
	m.Tag, m.Payload = 0, corrupted(wire)
	return m
}

// MessageFault describes what fault injection does to one message in
// flight. The zero value means "deliver normally".
type MessageFault struct {
	Drop      bool            // message lost; the caller times out
	Duplicate bool            // message delivered twice (dedup must absorb it)
	Corrupt   bool            // payload damaged; checksum catches it
	Stall     vclock.Duration // slow delivery, charged to the virtual clock
}

// Injector decides the fate of messages on a Conn. Implemented by the chaos
// engine; consulted once per request and once per response, with the
// response's body (its status tag travels beside it).
type Injector interface {
	RequestFault(seq uint64, payload []byte) MessageFault
	ResponseFault(seq uint64, payload []byte) MessageFault
}

// Conn is the RPC connection between the host process and one agent
// process. A call delivers its request to the agent's handler and returns
// the agent's response, charging the IPC round trip plus per-byte copy
// costs to the virtual clock.
//
// The agent is single-threaded: the connection's mutex is held for the
// whole of a call, so concurrent callers on one connection are served one
// after another, each getting exactly its own response. The handler and
// the injector run under that mutex and must not call back into the
// connection.
//
// Exactly-once: every request carries a sequence number; the server caches
// the response to each sequence it has completed, so a retried request
// (sent because the client saw a crash after the agent may or may not have
// finished) is answered from the cache instead of re-executed. Stateless
// re-execution after a genuine crash is the documented at-least-once path.
type Conn struct {
	clock   *vclock.Clock
	cost    vclock.CostModel
	handler Handler

	seq    atomic.Uint64
	closed atomic.Bool

	mu sync.Mutex // held for a whole call: the agent serves one request at a time
	// done is the server-side dedup cache: the responses of the last
	// doneCap completed sequences, in the order they completed, oldest at
	// done[next] once it is full. It grows as responses arrive, so an idle
	// connection holds none; once full, a response takes the oldest one's
	// slot, so remembering allocates nothing. hi is the highest sequence it
	// has held: a request above it, the usual case, is new without a
	// search.
	done    []cached
	next    int
	hi      uint64
	doneCap int
	inject  Injector
}

// cached is one completed sequence's response in the dedup cache: key is
// the sequence shifted left once, its low bit set when the response is an
// application error, and body is the response as the handler returned it.
type cached struct {
	key  uint64
	body []byte
}

// NewConn creates a connection to an agent that serves requests with h.
// clock may be nil to skip virtual-time charging (unit tests).
func NewConn(clock *vclock.Clock, cost vclock.CostModel, h Handler) *Conn {
	return &Conn{
		clock:   clock,
		cost:    cost,
		handler: h,
		doneCap: 1024,
	}
}

// SetInjector installs (or clears, with nil) the fault injector consulted
// for every message on this connection.
func (c *Conn) SetInjector(i Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inject = i
}

// respKindOK, respKindCrash and respKindCorrupt tag server responses.
const (
	respKindOK uint32 = iota
	respKindCrash
	respKindCorrupt
)

// sum is the checksum carried in Message.Sum: FNV-1a over the message's
// wire bytes.
func (m Message) sum() uint64 {
	h := fnv.New64a()
	if m.Tag != 0 {
		tag := [1]byte{m.Tag}
		_, _ = h.Write(tag[:])
	}
	_, _ = h.Write(m.Payload)
	return h.Sum64()
}

// serve is the agent side of one delivery: verify, execute (with dedup),
// and build the response. Called with c.mu held.
func (c *Conn) serve(m Message) Message {
	if m.sum() != m.Sum {
		// Damaged in transit: reject before dispatch so a re-issue under
		// the same sequence can still execute exactly once.
		return response(m.Seq, respKindCorrupt, 0, []byte("request checksum mismatch"))
	}
	if e, dup := c.lookup(m.Seq); dup {
		tag := tagResult
		if e.key&1 != 0 {
			tag = tagError
		}
		return response(m.Seq, respKindOK, tag, e.body)
	}
	out, err := c.handler(m.Kind, m.Payload)
	if err != nil && errors.Is(err, ErrAgentCrashed) {
		return response(m.Seq, respKindCrash, 0, []byte(err.Error()))
	}
	tag := tagResult
	if err != nil {
		// Application-level errors travel as payloads; the RPC layer
		// only distinguishes success from crash.
		tag, out = tagError, []byte(err.Error())
	}
	c.remember(m.Seq, tag, out)
	return response(m.Seq, respKindOK, tag, out)
}

// response frames a server response with its checksum.
func response(seq uint64, kind uint32, tag byte, p []byte) Message {
	m := Message{Seq: seq, Kind: kind, Tag: tag, Payload: p}
	m.Sum = m.sum()
	return m
}

// lookup returns the cached response to seq, if the dedup cache holds
// one. It searches newest first, since a retry follows its failed attempt
// closely. Called with c.mu held.
func (c *Conn) lookup(seq uint64) (cached, bool) {
	if seq > c.hi {
		return cached{}, false
	}
	for i := range c.done {
		e := c.done[(c.next-1-i+len(c.done))%len(c.done)]
		if e.key>>1 == seq {
			return e, true
		}
	}
	return cached{}, false
}

// remember stores the response to seq, a sequence the cache does not
// hold, evicting the oldest once doneCap are held. Called with c.mu held.
func (c *Conn) remember(seq uint64, tag byte, out []byte) {
	e := cached{key: seq << 1, body: out}
	if tag == tagError {
		e.key |= 1
	}
	c.hi = max(c.hi, seq)
	if len(c.done) < c.doneCap {
		c.done = append(c.done, e)
		return
	}
	c.done[c.next] = e
	c.next = (c.next + 1) % len(c.done)
}

// NextSeq reserves and returns a fresh sequence number, for callers that
// need to know the sequence before issuing the request.
func (c *Conn) NextSeq() uint64 { return c.seq.Add(1) }

// CallSeq runs one attempt of a request under a sequence number reserved
// with NextSeq. After a failure the caller re-issues it under the same
// sequence: if the agent had already completed it, the dedup cache
// answers. Injector draws and virtual charges happen in a fixed order:
// request fault, agent side (a duplicated request is served a second time
// right behind the original, its answer discarded), crash short-circuit,
// response fault, then round trip plus copy cost.
func (c *Conn) CallSeq(seq uint64, kind uint32, payload []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	req := Message{Seq: seq, Kind: kind, Payload: payload}
	req.Sum = req.sum()
	var f MessageFault
	if c.inject != nil {
		f = c.inject.RequestFault(seq, payload)
		c.advance(f.Stall)
		if f.Drop {
			c.advance(c.cost.IPCTimeout)
			return nil, fmt.Errorf("%w: request seq %d lost", ErrTimeout, seq)
		}
		if f.Corrupt {
			// Sum still covers the payload as intended, so the agent
			// detects the damage.
			req.Payload = corrupted(payload)
		}
	}
	m := c.serve(req)
	if f.Duplicate {
		c.serve(req)
	}
	if m.Kind == respKindCrash {
		// A crash notification is control-plane bookkeeping, not a data
		// message: it consumes no injector decision and charges nothing.
		return nil, fmt.Errorf("%w: %s", ErrAgentCrashed, m.Payload)
	}
	if c.inject != nil {
		f = c.inject.ResponseFault(seq, m.Payload)
		c.advance(f.Stall)
		if f.Drop {
			c.advance(c.cost.IPCTimeout)
			return nil, fmt.Errorf("%w: response seq %d lost", ErrTimeout, seq)
		}
		if f.Corrupt {
			m = m.corrupted()
		}
	}
	c.advance(c.cost.IPCRoundTrip)
	c.advance(c.cost.CopyCost(len(payload) + m.size()))
	if m.Kind == respKindCorrupt || m.sum() != m.Sum {
		return nil, fmt.Errorf("%w: seq %d", ErrCorrupt, seq)
	}
	switch m.Tag {
	case tagResult:
		return m.Payload, nil
	case tagError:
		return nil, errors.New(string(m.Payload))
	default:
		return nil, fmt.Errorf("ipc: malformed response tag %q", m.Tag)
	}
}

// advance charges d to the virtual clock, if there is one.
func (c *Conn) advance(d vclock.Duration) {
	if d > 0 && c.clock != nil {
		c.clock.Advance(d)
	}
}

// corrupted returns a copy of p with one byte flipped (or a poison byte for
// empty payloads), simulating in-transit damage without touching the
// caller's buffer.
func corrupted(p []byte) []byte {
	if len(p) == 0 {
		return []byte{0xFF}
	}
	out := make([]byte, len(p))
	copy(out, p)
	out[len(out)/2] ^= 0xFF
	return out
}

// Close retires the connection: later calls fail with ErrClosed. It does
// not wait for a call in progress.
func (c *Conn) Close() { c.closed.Store(true) }
