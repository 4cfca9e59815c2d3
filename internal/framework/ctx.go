package framework

import (
	"bytes"
	"errors"
	"fmt"

	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/object"
)

// Tracer observes data-flow operations as APIs execute. The dynamic
// analyzer (internal/trace) implements it; a nil tracer disables recording.
type Tracer interface {
	// RecordOp is called for every storage-level transfer the running API
	// actually performs.
	RecordOp(api string, op Op)
}

// ExploitFunc is invoked when a vulnerability triggers inside an API. The
// attack layer installs payload behaviours; the default (nil) handler
// crashes the hosting process, modelling an unhandled memory-corruption
// fault. The payload bytes are read-only: they may lie in a snapshot that
// the address space shares with other readers (object.Snapshot), so a
// handler that needs to change them copies them first.
type ExploitFunc func(ctx *Ctx, cve string, payload []byte) error

// ErrExploited marks errors produced by a triggered vulnerability.
var ErrExploited = errors.New("framework: vulnerability exploited")

// Ctx is the environment an API implementation executes in: the simulated
// kernel, the hosting process (whose address space holds all allocations),
// the process-local object table, and observation/exploit hooks.
type Ctx struct {
	K     *kernel.Kernel
	P     *kernel.Process
	Table *object.Table

	// OnExploit handles triggered vulnerabilities; nil = crash the process.
	OnExploit ExploitFunc
	// Tracer records dynamic data-flow operations; nil = off.
	Tracer Tracer

	// api is the name of the currently executing API (set by Exec).
	api string
}

// NewCtx builds a context for running APIs inside process p.
func NewCtx(k *kernel.Kernel, p *kernel.Process) *Ctx {
	return &Ctx{K: k, P: p, Table: object.NewTable(uint32(p.PID()))}
}

// emit records a dynamic data-flow operation.
func (c *Ctx) emit(op Op) {
	if c.Tracer != nil {
		c.Tracer.RecordOp(c.api, op)
	}
}

// EmitMemOp records a memory-to-memory transfer (W(MEM, R(MEM))).
func (c *Ctx) EmitMemOp() { c.emit(WriteOp(StorageMem, StorageMem)) }

// Charge advances the virtual clock by the compute cost of touching n
// bytes at the given intensity.
func (c *Ctx) Charge(n int, intensity float64) {
	c.K.Clock.Advance(c.K.Cost.ComputeCost(n, intensity))
}

// --- vulnerability triggers -------------------------------------------------

// triggerMagic prefixes crafted malicious inputs.
var triggerMagic = []byte("!!CVE:")

// Trigger builds a crafted input that exploits cve, carrying an attack
// payload. The attack layer uses this to construct malicious images,
// models, and frames.
func Trigger(cve string, payload []byte) []byte {
	out := append([]byte(nil), triggerMagic...)
	out = append(out, cve...)
	out = append(out, []byte("!!")...)
	out = append(out, payload...)
	return out
}

// ParseTrigger recognizes a crafted input, returning the CVE id and
// payload. The trigger may be embedded anywhere in the data (trojaned
// models hide it among valid weights).
func ParseTrigger(data []byte) (cve string, payload []byte, ok bool) {
	start := bytes.Index(data, triggerMagic)
	if start < 0 {
		return "", nil, false
	}
	rest := data[start+len(triggerMagic):]
	end := bytes.Index(rest, []byte("!!"))
	if end < 0 {
		return "", nil, false
	}
	return string(rest[:end]), rest[end+2:], true
}

// MaybeExploit checks whether data is a crafted input targeting one of the
// API's vulnerabilities, and if so fires the exploit handler. It returns
// (true, err) when an exploit triggered. Crafted inputs targeting CVEs the
// API does not have are inert (the vulnerability is not present there).
func (c *Ctx) MaybeExploit(api *API, data []byte) (bool, error) {
	cve, payload, ok := ParseTrigger(data)
	if !ok {
		return false, nil
	}
	if !api.HasCVE(cve) {
		return false, nil
	}
	if c.OnExploit != nil {
		return true, c.OnExploit(c, cve, payload)
	}
	// Default: the memory corruption lands nowhere useful and the process
	// segfaults.
	c.K.Crash(c.P, fmt.Sprintf("%s exploited in %s", cve, c.api))
	return true, fmt.Errorf("%w: %s in %s (process crashed)", ErrExploited, cve, c.api)
}

// --- kernel-mediated I/O with dynamic-trace emission -------------------------

// FileRead loads a file into memory, emitting W(MEM, R(FILE)). The bytes
// are the file's own (kernel.FS.ReadFile) and are only read: an API
// decodes them, or makes an object of them with NewBlob or
// NewMatFromBytes, which take them over.
func (c *Ctx) FileRead(path string) ([]byte, error) {
	data, err := c.K.FileRead(c.P, path)
	if err != nil {
		return nil, err
	}
	c.emit(WriteOp(StorageMem, StorageFile))
	return data, nil
}

// FileWrite stores memory to a file, emitting W(FILE, R(MEM)). The file
// keeps data itself (kernel.FS.WriteFile): an API passes a buffer it built
// for the write and does not write it afterwards.
func (c *Ctx) FileWrite(path string, data []byte) error {
	if err := c.K.FileWrite(c.P, path, data); err != nil {
		return err
	}
	c.emit(WriteOp(StorageFile, StorageMem))
	return nil
}

// FileAppend appends memory to a file, emitting W(FILE, R(MEM)).
func (c *Ctx) FileAppend(path string, data []byte) error {
	if err := c.K.FileAppend(c.P, path, data); err != nil {
		return err
	}
	c.emit(WriteOp(StorageFile, StorageMem))
	return nil
}

// CameraRead fetches a camera frame, emitting W(MEM, R(DEV)).
func (c *Ctx) CameraRead(label string) ([]byte, bool, error) {
	frame, ok, err := c.K.CameraRead(c.P, label)
	if err != nil || !ok {
		return nil, ok, err
	}
	c.emit(WriteOp(StorageMem, StorageDev))
	return frame, true, nil
}

// NetDownload receives data from a remote host, emitting W(MEM, R(DEV)) —
// the network is a device in the Fig. 8 model.
func (c *Ctx) NetDownload(host string) ([]byte, bool, error) {
	data, ok, err := c.K.NetRecv(c.P, host)
	if err != nil || !ok {
		return nil, ok, err
	}
	c.emit(WriteOp(StorageMem, StorageDev))
	return data, true, nil
}

// GUIShow paints pixels, emitting W(GUI, R(MEM)).
func (c *Ctx) GUIShow(window string, nbytes int) error {
	if err := c.K.GUIShow(c.P, window, nbytes); err != nil {
		return err
	}
	c.emit(WriteOp(StorageGUI, StorageMem))
	return nil
}

// GUIOp performs a non-paint window operation, emitting R(GUI).
func (c *Ctx) GUIOp(op, window string) error {
	if err := c.K.GUIOp(c.P, op, window); err != nil {
		return err
	}
	c.emit(ReadOp(StorageGUI))
	return nil
}

// GUIReadState reads GUI-owned state into memory, emitting W(MEM, R(GUI)).
func (c *Ctx) GUIReadState() ([]string, error) {
	if err := c.K.Syscall(c.P, kernel.SysSelect, kernel.GUIHost); err != nil {
		return nil, err
	}
	if err := c.K.Syscall(c.P, kernel.SysRecvfrom, ""); err != nil {
		return nil, err
	}
	c.emit(WriteOp(StorageMem, StorageGUI))
	return c.K.GUI.Recent(), nil
}

// --- object helpers ----------------------------------------------------------

// NewMat allocates a mat in the hosting process and registers it.
func (c *Ctx) NewMat(rows, cols, channels int) (uint64, *object.Mat, error) {
	m, err := object.NewMat(c.P.Space(), rows, cols, channels)
	if err != nil {
		return 0, nil, err
	}
	return c.Table.Put(m), m, nil
}

// NewMatFromBytes makes a mat of data in the hosting process and
// registers it. The mat takes data over (object.MatFromBytes): the caller
// must not write data afterwards.
func (c *Ctx) NewMatFromBytes(rows, cols, channels int, data []byte) (uint64, *object.Mat, error) {
	m, err := object.MatFromBytes(c.P.Space(), rows, cols, channels, data)
	if err != nil {
		return 0, nil, err
	}
	return c.Table.Put(m), m, nil
}

// NewTensor allocates a tensor in the hosting process and registers it.
func (c *Ctx) NewTensor(shape ...int) (uint64, *object.Tensor, error) {
	t, err := object.NewTensor(c.P.Space(), shape...)
	if err != nil {
		return 0, nil, err
	}
	return c.Table.Put(t), t, nil
}

// NewBlob makes a blob of data in the hosting process and registers it.
// The blob takes data over (object.NewBlob): the caller must not write
// data afterwards.
func (c *Ctx) NewBlob(data []byte) (uint64, *object.Blob, error) {
	b, err := object.NewBlob(c.P.Space(), data)
	if err != nil {
		return 0, nil, err
	}
	return c.Table.Put(b), b, nil
}

// Obj resolves a Value to the underlying object.
func (c *Ctx) Obj(v Value) (object.Object, error) {
	if v.Kind != ValObj {
		return nil, fmt.Errorf("framework: value %s is not a local object", v)
	}
	o, ok := c.Table.Get(v.Obj)
	if !ok {
		return nil, fmt.Errorf("framework: dangling object id %d", v.Obj)
	}
	return o, nil
}

// Mat resolves a Value to a *object.Mat.
func (c *Ctx) Mat(v Value) (*object.Mat, error) {
	o, err := c.Obj(v)
	if err != nil {
		return nil, err
	}
	m, ok := o.(*object.Mat)
	if !ok {
		return nil, fmt.Errorf("framework: object %d is %s, want mat", v.Obj, o.Kind())
	}
	return m, nil
}

// Tensor resolves a Value to a *object.Tensor.
func (c *Ctx) Tensor(v Value) (*object.Tensor, error) {
	o, err := c.Obj(v)
	if err != nil {
		return nil, err
	}
	t, ok := o.(*object.Tensor)
	if !ok {
		return nil, fmt.Errorf("framework: object %d is %s, want tensor", v.Obj, o.Kind())
	}
	return t, nil
}

// Blob resolves a Value to a *object.Blob.
func (c *Ctx) Blob(v Value) (*object.Blob, error) {
	o, err := c.Obj(v)
	if err != nil {
		return nil, err
	}
	b, ok := o.(*object.Blob)
	if !ok {
		return nil, fmt.Errorf("framework: object %d is %s, want blob", v.Obj, o.Kind())
	}
	return b, nil
}
