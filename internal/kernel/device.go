package kernel

import (
	"fmt"
	"sync"
)

// Camera is a simulated frame-producing device (/dev/camera0). Frames are
// queued by tests/workloads and consumed by VideoCapture-style APIs.
type Camera struct {
	mu     sync.Mutex
	label  string
	frames [][]byte
}

// NewCamera creates a camera device with the given label (e.g.
// "/dev/camera0").
func NewCamera(label string) *Camera {
	return &Camera{label: label}
}

// Label returns the device label used in fd-scoped filter rules.
func (c *Camera) Label() string { return c.label }

// Push queues a frame for later Read calls.
func (c *Camera) Push(frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, append([]byte(nil), frame...))
}

// Read dequeues the next frame; ok is false when the stream is exhausted.
func (c *Camera) Read() (frame []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		return nil, false
	}
	frame = c.frames[0]
	c.frames[0] = nil // the queue's array no longer keeps the frame
	c.frames = c.frames[1:]
	return frame, true
}

// Pending reports how many frames remain queued.
func (c *Camera) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// NetMessage records one simulated network transmission.
type NetMessage struct {
	From PID
	Host string
	Data []byte
}

// Network is the simulated network device. Outbound traffic is recorded so
// exfiltration attempts are observable by tests and the attack analyzer.
type Network struct {
	mu       sync.Mutex
	sent     []NetMessage
	inbound  map[string][][]byte // host -> queued inbound payloads
	connects []string
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{inbound: make(map[string][][]byte)}
}

// Connect records a connection attempt to host.
func (n *Network) Connect(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.connects = append(n.connects, host)
}

// Send records an outbound transmission.
func (n *Network) Send(from PID, host string, data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sent = append(n.sent, NetMessage{From: from, Host: host, Data: append([]byte(nil), data...)})
}

// Sent returns a copy of every recorded outbound message.
func (n *Network) Sent() []NetMessage {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NetMessage, len(n.sent))
	copy(out, n.sent)
	return out
}

// SentTo returns outbound messages addressed to host.
func (n *Network) SentTo(host string) []NetMessage {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []NetMessage
	for _, m := range n.sent {
		if m.Host == host {
			out = append(out, m)
		}
	}
	return out
}

// QueueInbound queues data for a later Recv from host.
func (n *Network) QueueInbound(host string, data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inbound[host] = append(n.inbound[host], append([]byte(nil), data...))
}

// Recv dequeues inbound data from host; ok is false when none is queued.
func (n *Network) Recv(host string) (data []byte, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.inbound[host]
	if len(q) == 0 {
		return nil, false
	}
	data = q[0]
	q[0] = nil // the queue's array no longer keeps the message
	n.inbound[host] = q[1:]
	return data, true
}

// GUIEvent records one operation against the simulated GUI subsystem.
type GUIEvent struct {
	Op     string // "create", "show", "move", "title", "destroy"
	Window string
	Bytes  int
}

// GUI is the simulated display server (the g_windows / cvNamedWindow state
// of §4.2). Window state lives here, outside any framework process, which
// is what lets a restarted visualizing agent repaint without corruption
// (§A.2.4).
type GUI struct {
	mu      sync.Mutex
	windows map[string]bool
	events  []GUIEvent
	recent  []string // recently displayed titles (MComix3 case study)
	keys    []int    // pending keystrokes for pollKey/waitKey
}

// PushKey queues a keystroke for later pollKey/waitKey consumption.
func (g *GUI) PushKey(k int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.keys = append(g.keys, k)
}

// PopKey dequeues the next keystroke, returning -1 when none is pending.
func (g *GUI) PopKey() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.keys) == 0 {
		return -1
	}
	k := g.keys[0]
	g.keys = g.keys[1:]
	return k
}

// NewGUI creates an empty GUI subsystem.
func NewGUI() *GUI {
	return &GUI{windows: make(map[string]bool)}
}

// Show displays nbytes of image data in the named window, creating it if
// needed.
func (g *GUI) Show(name string, nbytes int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.windows[name] = true
	g.events = append(g.events, GUIEvent{Op: "show", Window: name, Bytes: nbytes})
	g.recent = append(g.recent, name)
	if len(g.recent) > 16 {
		g.recent = g.recent[len(g.recent)-16:]
	}
}

// Op records a generic window operation (move, title, ...).
func (g *GUI) Op(op, name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.events = append(g.events, GUIEvent{Op: op, Window: name})
}

// DestroyAll closes every window.
func (g *GUI) DestroyAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for w := range g.windows {
		delete(g.windows, w)
	}
	g.events = append(g.events, GUIEvent{Op: "destroy", Window: "*"})
}

// Windows reports the number of open windows.
func (g *GUI) Windows() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.windows)
}

// Events returns a copy of the recorded event log.
func (g *GUI) Events() []GUIEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]GUIEvent, len(g.events))
	copy(out, g.events)
	return out
}

// Recent returns the recently displayed window titles (sensitive state in
// the MComix3 information-leak case study, §5.4.2).
func (g *GUI) Recent() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.recent))
	copy(out, g.recent)
	return out
}

// String summarizes the GUI state.
func (g *GUI) String() string {
	return fmt.Sprintf("gui(%d windows, %d events)", g.Windows(), len(g.Events()))
}
