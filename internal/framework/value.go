package framework

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"freepart.dev/freepart/internal/object"
)

// ValueKind discriminates argument/result values.
type ValueKind uint8

// Value kinds.
const (
	ValNil ValueKind = iota
	ValInt
	ValFloat
	ValStr
	ValBool
	ValObj // a process-local object id (rewritten to a Ref across the boundary)
	ValRef // a cross-process object reference (lazy data copy)
)

// Value is one argument or result of a framework API call. Exactly one
// field corresponding to Kind is meaningful.
type Value struct {
	Kind  ValueKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
	// Obj is a process-local object table id (ValObj).
	Obj uint64
	// Ref is a cross-process reference (ValRef).
	Ref object.Ref
}

// Convenience constructors.

// Nil returns the nil value.
func Nil() Value { return Value{Kind: ValNil} }

// Int64 wraps an integer.
func Int64(v int64) Value { return Value{Kind: ValInt, Int: v} }

// Float64 wraps a float.
func Float64(v float64) Value { return Value{Kind: ValFloat, Float: v} }

// Str wraps a string.
func Str(v string) Value { return Value{Kind: ValStr, Str: v} }

// Bool wraps a bool.
func Bool(v bool) Value { return Value{Kind: ValBool, Bool: v} }

// Obj wraps a process-local object id.
func Obj(id uint64) Value { return Value{Kind: ValObj, Obj: id} }

// RefVal wraps a cross-process object reference.
func RefVal(r object.Ref) Value { return Value{Kind: ValRef, Ref: r} }

// String renders the value for logs.
func (v Value) String() string {
	switch v.Kind {
	case ValNil:
		return "nil"
	case ValInt:
		return fmt.Sprintf("%d", v.Int)
	case ValFloat:
		return fmt.Sprintf("%g", v.Float)
	case ValStr:
		return fmt.Sprintf("%q", v.Str)
	case ValBool:
		return fmt.Sprintf("%t", v.Bool)
	case ValObj:
		return fmt.Sprintf("obj#%d", v.Obj)
	case ValRef:
		return fmt.Sprintf("ref{pid=%d id=%d %dB}", v.Ref.PID, v.Ref.ID, v.Ref.Size)
	default:
		return fmt.Sprintf("value(kind=%d)", v.Kind)
	}
}

// Call is a marshalled API invocation: the API name plus its arguments.
// Payloads carries eager object payloads positionally aligned with Args
// (nil for pass-by-reference under lazy data copy). Release lists objects
// the host has released since its last call to this agent: the agent drops
// each one, or its lazy copy of it, before it runs the API.
type Call struct {
	API      string
	Args     []Value
	Payloads [][]byte
	Release  []Released
}

// Released names one released object: its owner's pid and its id in the
// owner's object table — the same pair a Ref carries.
type Released struct {
	PID uint32
	ID  uint64
}

// Reply is a marshalled API result.
type Reply struct {
	Results  []Value
	Payloads [][]byte
	// UpdatedArgs carries post-call argument state for out-parameters
	// (agent_update_arg in Fig. 10-(c)), aligned with the request's Args.
	UpdatedArgs     []Value
	UpdatedPayloads [][]byte
}

// Wire format. A Call is its API name, an argument list and a payload
// list, then, only when the call releases anything, a release list: a
// nonzero count and that many (pid, id) pairs of uvarints. A call that
// releases nothing ends after its payload list. A Reply is a result list,
// a payload list, an updated-argument list and an updated-payload list,
// in that order. Neither has a header. Every length and count is a
// uvarint. A value is its kind byte followed by that kind's field: a
// zigzag varint (ValInt), 8 big-endian bytes of IEEE 754 bits (ValFloat),
// a length-prefixed string (ValStr), one byte 0 or 1 (ValBool), a uvarint
// id (ValObj) or a length-prefixed Ref encoding (ValRef); ValNil has no
// field. A value carries only its kind's field.
//
// Every value has exactly one encoding and the decoder accepts nothing
// else, so the bytes the IPC layer charges are a function of the value.
// A zero-length list or byte slice decodes as nil, and decoded values
// share no memory with the input. DecodeCallInto and DecodeReplyInto are
// the same decoder writing into a message the caller keeps: a list, and a
// ref's header, reuses the array it held when that has room, so a
// zero-length list decodes as an empty one there, and a string that reads
// the same as the one it overwrites is kept instead of made again. The
// storage must be the caller's own, since a decode writes into the arrays
// it holds, and a caller that keeps a decoded ref past the next decode
// copies its header.

// Decoding failure classes, wrapped into the error a decode returns.
var (
	errTruncated = errors.New("truncated input")
	errVarint    = errors.New("overlong varint")
	errLength    = errors.New("length exceeds remaining input")
	errKind      = errors.New("unknown value kind")
	errBool      = errors.New("bool byte not 0 or 1")
	errTrailing  = errors.New("trailing bytes")
	errEmpty     = errors.New("empty release list")
	errPID       = errors.New("pid exceeds 32 bits")
)

// EncodeCall serializes a Call for the IPC layer into a buffer of exactly
// the encoded length.
func EncodeCall(c Call) ([]byte, error) { return AppendCall(nil, c) }

// AppendCall appends c's encoding to b. When b has no room for it, the
// encoding goes into a new buffer with room for exactly b and it. The host
// encodes every call to an agent into the same buffer: no one keeps a
// request once it has been served.
func AppendCall(b []byte, c Call) ([]byte, error) {
	n := bytesLen(len(c.API)) + valuesLen(c.Args) + payloadsLen(c.Payloads)
	if len(c.Release) > 0 {
		n += uvarintLen(uint64(len(c.Release)))
		for _, r := range c.Release {
			n += uvarintLen(uint64(r.PID)) + uvarintLen(r.ID)
		}
	}
	if cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = appendBytes(b, c.API)
	b, err := appendValues(b, c.Args)
	if err != nil {
		return nil, fmt.Errorf("framework: encode call: %w", err)
	}
	b = appendPayloads(b, c.Payloads)
	if len(c.Release) > 0 {
		b = binary.AppendUvarint(b, uint64(len(c.Release)))
		for _, r := range c.Release {
			b = binary.AppendUvarint(b, uint64(r.PID))
			b = binary.AppendUvarint(b, r.ID)
		}
	}
	return b, nil
}

// DecodeCall parses a serialized Call.
func DecodeCall(b []byte) (Call, error) {
	var c Call
	if err := DecodeCallInto(&c, b, nil); err != nil {
		return Call{}, err
	}
	return c, nil
}

// DecodeCallInto parses a serialized Call into c, reusing c's lists and
// strings (see the wire format). An agent serves one call at a time, so
// it decodes every call into the same Call. names, if not nil, is the
// registry the API will be looked up in: a name it holds is taken from
// it, so the decode makes no string for the name. After a failure c
// holds an unspecified message.
func DecodeCallInto(c *Call, b []byte, names *Registry) error {
	d := decoder{b: b}
	if raw := d.raw(); string(raw) != c.API {
		c.API = names.name(raw)
	}
	c.Args = d.values(c.Args)
	c.Payloads = d.payloads(c.Payloads)
	c.Release = c.Release[:0]
	if len(d.b) > 0 {
		c.Release = d.released(c.Release)
	}
	if err := d.finish(); err != nil {
		return fmt.Errorf("framework: decode call: %w", err)
	}
	return nil
}

// EncodeReply serializes a Reply into a buffer of exactly the encoded
// length, so the IPC layer's dedup cache can keep it as it is.
func EncodeReply(r Reply) ([]byte, error) {
	b := make([]byte, 0, valuesLen(r.Results)+payloadsLen(r.Payloads)+valuesLen(r.UpdatedArgs)+payloadsLen(r.UpdatedPayloads))
	b, err := appendValues(b, r.Results)
	if err == nil {
		b = appendPayloads(b, r.Payloads)
		b, err = appendValues(b, r.UpdatedArgs)
	}
	if err != nil {
		return nil, fmt.Errorf("framework: encode reply: %w", err)
	}
	return appendPayloads(b, r.UpdatedPayloads), nil
}

// DecodeReply parses a serialized Reply.
func DecodeReply(b []byte) (Reply, error) {
	var r Reply
	if err := DecodeReplyInto(&r, b); err != nil {
		return Reply{}, err
	}
	return r, nil
}

// DecodeReplyInto parses a serialized Reply into r, reusing r's lists and
// strings (see the wire format). After a failure r holds an unspecified
// message.
func DecodeReplyInto(r *Reply, b []byte) error {
	d := decoder{b: b}
	r.Results = d.values(r.Results)
	r.Payloads = d.payloads(r.Payloads)
	r.UpdatedArgs = d.values(r.UpdatedArgs)
	r.UpdatedPayloads = d.payloads(r.UpdatedPayloads)
	if err := d.finish(); err != nil {
		return fmt.Errorf("framework: decode reply: %w", err)
	}
	return nil
}

// uvarintLen is the encoded length of a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// bytesLen is the encoded length of a length-prefixed field of n bytes.
func bytesLen(n int) int { return uvarintLen(uint64(n)) + n }

// valuesLen is the encoded length of a value list. A value of unknown kind
// counts its kind byte only; encoding it fails anyway.
func valuesLen(vals []Value) int {
	n := uvarintLen(uint64(len(vals)))
	for _, v := range vals {
		n++
		switch v.Kind {
		case ValInt:
			n += uvarintLen(uint64(v.Int<<1) ^ uint64(v.Int>>63))
		case ValFloat:
			n += 8
		case ValStr:
			n += bytesLen(len(v.Str))
		case ValBool:
			n++
		case ValObj:
			n += uvarintLen(v.Obj)
		case ValRef:
			n += bytesLen(v.Ref.EncodedLen())
		}
	}
	return n
}

// payloadsLen is the encoded length of a payload list.
func payloadsLen(payloads [][]byte) int {
	n := uvarintLen(uint64(len(payloads)))
	for _, p := range payloads {
		n += bytesLen(len(p))
	}
	return n
}

func appendBytes[T string | []byte](b []byte, s T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValues(b []byte, vals []Value) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = append(b, byte(v.Kind))
		switch v.Kind {
		case ValNil:
		case ValInt:
			b = binary.AppendVarint(b, v.Int)
		case ValFloat:
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float))
		case ValStr:
			b = appendBytes(b, v.Str)
		case ValBool:
			if v.Bool {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case ValObj:
			b = binary.AppendUvarint(b, v.Obj)
		case ValRef:
			b = binary.AppendUvarint(b, uint64(v.Ref.EncodedLen()))
			b = v.Ref.Append(b)
		default:
			return nil, fmt.Errorf("%w %d", errKind, v.Kind)
		}
	}
	return b, nil
}

func appendPayloads(b []byte, payloads [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(payloads)))
	for _, p := range payloads {
		b = appendBytes(b, p)
	}
	return b
}

// decoder reads the wire format from b. The first failure sticks in err;
// later reads return zero values, so a message decodes as straight-line
// code with one check at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail(errTruncated)
		return 0
	case n < 0 || (n > 1 && d.b[n-1] == 0):
		// Overflows 64 bits, or ends in a zero byte a minimal encoding
		// would not have.
		d.fail(errVarint)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a zigzag-encoded signed varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a length or element count and checks it against the bytes
// left, each element taking at least one byte, before anything is
// allocated for it.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail(errLength)
		return 0
	}
	return int(n)
}

// raw returns the next length-prefixed field as a view into the input.
func (d *decoder) raw() []byte {
	n := d.count()
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

// str reads a length-prefixed string. It returns old, making no string,
// when the field reads the same.
func (d *decoder) str(old string) string {
	if s := d.raw(); string(s) != old {
		return string(s)
	}
	return old
}

func (d *decoder) bytes() []byte {
	if s := d.raw(); len(s) > 0 {
		return append([]byte(nil), s...)
	}
	return nil
}

// resize returns s with n entries for a decoder to overwrite: in s's own
// array when it has room, otherwise in a new one of exactly n. Entries
// past n are zeroed, so reused storage keeps nothing of a longer message.
// A nil s with n zero stays nil.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	clear(s[n:cap(s)])
	return s[:n]
}

// values reads a value list into vals's storage.
func (d *decoder) values(vals []Value) []Value {
	vals = resize(vals, d.count())
	for i := range vals {
		vals[i] = d.value(vals[i])
	}
	return vals
}

// payloads reads a payload list into ps's storage. Each payload is a new
// copy: the list is reused, the bytes it names are not.
func (d *decoder) payloads(ps [][]byte) [][]byte {
	ps = resize(ps, d.count())
	for i := range ps {
		ps[i] = d.bytes()
	}
	return ps
}

// released reads a release list into rs's storage. An empty list is
// encoded by its absence, so a zero count is not canonical and is refused.
func (d *decoder) released(rs []Released) []Released {
	n := d.count()
	if n == 0 {
		d.fail(errEmpty)
		return rs
	}
	rs = resize(rs, n)
	for i := range rs {
		pid := d.uvarint()
		if pid > math.MaxUint32 {
			d.fail(errPID)
			return rs[:0]
		}
		rs[i] = Released{PID: uint32(pid), ID: d.uvarint()}
	}
	if d.err != nil {
		return rs[:0]
	}
	return rs
}

// value reads one value over old, the value its storage held: it keeps
// old's string when the new one reads the same, and copies a ref's header
// into old's header array.
func (d *decoder) value(old Value) Value {
	switch k := ValueKind(d.byte()); k {
	case ValNil:
		return Nil()
	case ValInt:
		return Int64(d.varint())
	case ValFloat:
		if len(d.b) < 8 {
			d.fail(errTruncated)
			return Value{}
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(d.b))
		d.b = d.b[8:]
		return Float64(f)
	case ValStr:
		return Str(d.str(old.Str))
	case ValBool:
		switch d.byte() {
		case 0:
			return Bool(false)
		case 1:
			return Bool(true)
		}
		d.fail(errBool)
	case ValObj:
		return Obj(d.uvarint())
	case ValRef:
		r := old.Ref
		if err := object.DecodeRefInto(&r, d.raw()); err != nil {
			d.fail(err)
		}
		return RefVal(r)
	default:
		d.fail(fmt.Errorf("%w %d", errKind, k))
	}
	return Value{}
}

// finish reports the first decoding failure, or trailing bytes after a
// complete message.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = errTrailing
	}
	return d.err
}
