package framework

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"freepart.dev/freepart/internal/object"
)

// goldenRef is the reference carried by the golden messages.
var goldenRef = object.Ref{PID: 2, ID: 5, Size: 64, Kind: object.KindMat, Hash: 0x1122334455667788, Header: []byte{0xAA}}

// goldenCall and goldenReply together cover every value kind, a nil
// payload and a non-nil payload.
var (
	goldenCall = Call{
		API:      "cv.blur",
		Args:     []Value{Nil(), Int64(-2), Float64(1.5), Str("ok"), Bool(true), Obj(300), RefVal(goldenRef)},
		Payloads: [][]byte{nil, {1, 2, 3}},
	}
	goldenReply = Reply{
		Results:  []Value{Int64(64), Bool(false)},
		Payloads: [][]byte{nil, {9, 9}},
	}
	// goldenReleaseCall carries a release list: one of the agent's own
	// objects and one whose lazy copy it holds.
	goldenReleaseCall = Call{
		API:     "cv.blur",
		Args:    []Value{RefVal(goldenRef)},
		Release: []Released{{PID: 3, ID: 300}, {PID: 2, ID: 5}},
	}
)

// unhex decodes a hex listing: spaces between fields, # comments to the
// end of a line.
func unhex(t testing.TB, s string) []byte {
	t.Helper()
	var digits strings.Builder
	for _, line := range strings.Split(s, "\n") {
		line, _, _ = strings.Cut(line, "#")
		digits.WriteString(strings.Join(strings.Fields(line), ""))
	}
	b, err := hex.DecodeString(digits.String())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The IPC layer charges CopyCost on these bytes, so a change here moves
// the virtual clock: regenerate the BENCH files alongside it.
const (
	goldenCallHex = `
		07 63762e626c7572                 # API "cv.blur"
		07                                # 7 args
		00                                # nil
		01 03                             # int -2 (zigzag 3)
		02 3ff8000000000000               # float 1.5
		03 02 6f6b                        # str "ok"
		04 01                             # bool true
		05 ac02                           # obj 300
		06 1e 00000002 0000000000000005   # ref: 30 bytes, pid 2, id 5,
		      0000000000000040 01         #   size 64, kind mat,
		      1122334455667788 aa         #   hash, header
		02 00 03 010203                   # payloads: nil, [1 2 3]`
	goldenReplyHex = `
		02 01 8001 04 00                  # results: int 64, bool false
		02 00 02 0909                     # payloads: nil, [9 9]
		00                                # no updated args
		00                                # no updated payloads`
	// A call that releases nothing ends after its payload list, so
	// goldenCallHex is also the encoding of goldenCall with an empty list.
	goldenReleaseCallHex = `
		07 63762e626c7572                 # API "cv.blur"
		01                                # 1 arg
		06 1e 00000002 0000000000000005   # ref: 30 bytes, pid 2, id 5,
		      0000000000000040 01         #   size 64, kind mat,
		      1122334455667788 aa         #   hash, header
		00                                # no payloads
		02                                # release 2 objects:
		03 ac02                           #   pid 3, id 300
		02 05                             #   pid 2, id 5`
)

func TestWireGolden(t *testing.T) {
	wantCall := unhex(t, goldenCallHex)
	wantReply := unhex(t, goldenReplyHex)
	gotCall, err := EncodeCall(goldenCall)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCall, wantCall) {
		t.Fatalf("call encoding moved:\n got %x\nwant %x", gotCall, wantCall)
	}
	gotReply, err := EncodeReply(goldenReply)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotReply, wantReply) {
		t.Fatalf("reply encoding moved:\n got %x\nwant %x", gotReply, wantReply)
	}
	c, err := DecodeCall(wantCall)
	if err != nil || !reflect.DeepEqual(c, goldenCall) {
		t.Fatalf("decode call = %+v, %v", c, err)
	}
	r, err := DecodeReply(wantReply)
	if err != nil || !reflect.DeepEqual(r, goldenReply) {
		t.Fatalf("decode reply = %+v, %v", r, err)
	}
	wantRelease := unhex(t, goldenReleaseCallHex)
	gotRelease, err := EncodeCall(goldenReleaseCall)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRelease, wantRelease) {
		t.Fatalf("release list encoding moved:\n got %x\nwant %x", gotRelease, wantRelease)
	}
	c, err = DecodeCall(wantRelease)
	if err != nil || !reflect.DeepEqual(c, goldenReleaseCall) {
		t.Fatalf("decode release call = %+v, %v", c, err)
	}
	empty := goldenCall
	empty.Release = []Released{}
	if b, err := EncodeCall(empty); err != nil || !bytes.Equal(b, wantCall) {
		t.Fatalf("an empty release list must add no bytes: %x, %v", b, err)
	}
}

func TestWireRoundTripEveryKind(t *testing.T) {
	vals := []Value{
		Nil(),
		Int64(0), Int64(math.MinInt64), Int64(math.MaxInt64),
		Float64(0), Float64(math.Copysign(0, -1)), Float64(math.Inf(-1)),
		Float64(math.Float64frombits(0x7ff8_0000_dead_beef)), // NaN payload
		Str(""), Str("\xff\x00not utf-8"),
		Bool(false), Bool(true),
		Obj(0), Obj(math.MaxUint64),
		RefVal(object.Ref{}), RefVal(goldenRef),
	}
	for _, v := range vals {
		b, err := EncodeCall(Call{Args: []Value{v}})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		c, err := DecodeCall(b)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		got := c.Args[0]
		// Compare floats by their bits, so NaN payloads and -0 count.
		if math.Float64bits(got.Float) != math.Float64bits(v.Float) {
			t.Fatalf("round trip of %v = %+v", v, got)
		}
		got.Float, v.Float = 0, 0
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip of %v = %+v", v, got)
		}
	}
}

func TestWireZeroLengthDecodesNil(t *testing.T) {
	b, err := EncodeReply(Reply{Results: []Value{}, Payloads: [][]byte{{}, nil}, UpdatedPayloads: [][]byte{}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeReply(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Results != nil || r.UpdatedPayloads != nil || len(r.Payloads) != 2 || r.Payloads[0] != nil || r.Payloads[1] != nil {
		t.Fatalf("zero-length fields must decode as nil: %#v", r)
	}
}

func TestEncodeUnknownKind(t *testing.T) {
	if _, err := EncodeCall(Call{Args: []Value{{Kind: ValRef + 1}}}); !errors.Is(err, errKind) {
		t.Fatalf("call: err = %v, want unknown kind", err)
	}
	if _, err := EncodeReply(Reply{UpdatedArgs: []Value{{Kind: 99}}}); !errors.Is(err, errKind) {
		t.Fatalf("reply: err = %v, want unknown kind", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	call := unhex(t, goldenCallHex)
	reply := unhex(t, goldenReplyHex)
	cases := []struct {
		name  string
		reply bool
		in    []byte
		want  error
	}{
		{"empty", false, nil, errTruncated},
		{"truncated before payloads", false, call[:len(call)-6], errTruncated},
		{"truncated float", false, unhex(t, "00 01 02 3ff8"), errTruncated},
		{"truncated varint", true, []byte{0xFF}, errTruncated},
		{"unknown kind", false, unhex(t, "00 01 07 00"), errKind},
		{"bool byte 2", false, unhex(t, "00 01 04 02 00"), errBool},
		{"overlong varint", false, unhex(t, "8000 00 00"), errVarint},
		{"varint over 64 bits", true, unhex(t, "ffffffffffffffffff02"), errVarint},
		{"trailing bytes", true, append(append([]byte(nil), reply...), 0), errTrailing},
		{"string longer than input", false, []byte("junk"), errLength},
		{"huge payload count", false, unhex(t, "00 00 ffffffffffffffff7f"), errLength},
		{"huge value count", true, unhex(t, "ffffffff0f"), errLength},
		{"short ref", false, unhex(t, "00 01 06 03 010203 00"), nil}, // object.DecodeRefInto's error
		{"zero release count", false, append(append([]byte(nil), call...), 0), errEmpty},
		{"huge release count", false, append(append([]byte(nil), call...), unhex(t, "ffffffff0f 0102")...), errLength},
		{"truncated release entry", false, append(append([]byte(nil), call...), unhex(t, "01 03")...), errTruncated},
		{"release pid over 32 bits", false, append(append([]byte(nil), call...), unhex(t, "01 8080808010 01")...), errPID},
		{"trailing bytes after release list", false, append(append([]byte(nil), call...), unhex(t, "01 03 04 00")...), errTrailing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.reply {
				_, err = DecodeReply(tc.in)
			} else {
				_, err = DecodeCall(tc.in)
			}
			if err == nil {
				t.Fatalf("decoding %x should fail", tc.in)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestResizeKeepsNothingOfALongerMessage: reused storage keeps its array
// when it has room, and zeroes what a shorter message leaves past its end,
// so it holds nothing of the longer message before it.
func TestResizeKeepsNothingOfALongerMessage(t *testing.T) {
	long := []Value{Str("a"), Str("b"), Str("c")}
	short := resize(long, 1)
	if len(short) != 1 || &short[0] != &long[0] {
		t.Fatalf("resize to 1 made a new array or the wrong length: %d", len(short))
	}
	for i, v := range long[1:] {
		if !reflect.DeepEqual(v, Value{}) {
			t.Fatalf("entry %d past the end still holds %v", i+1, v)
		}
	}
	if got := resize[Value](nil, 0); got != nil {
		t.Fatalf("resize(nil, 0) = %v, want nil", got)
	}
	if got := resize(short, 4); len(got) != 4 || cap(got) != 4 {
		t.Fatalf("growing past capacity gave len %d cap %d, want exactly 4", len(got), cap(got))
	}
}

// checkCanonical is the fuzz property shared by both message types: bytes
// that decode re-encode to exactly themselves, into a buffer with no spare
// capacity, and the decoded message shares no memory with its input. The
// IPC dedup cache keeps encoded replies as they are, so spare capacity
// would be retained heap.
//
// The same bytes also decode into reused storage, a message that last held
// another decoded message, as an agent decodes every call into one Call:
// that decode must succeed or fail with the fresh one, give the same
// message, re-encode exactly and share no memory with the input either.
func checkCanonical[M any](t *testing.T, in []byte, reused M, decode func([]byte) (M, error), decodeInto func(*M, []byte) error, encode func(M) ([]byte, error), same func(a, b M) bool) {
	orig := append([]byte(nil), in...)
	m, err := decode(in)
	errInto := decodeInto(&reused, in)
	if (err == nil) != (errInto == nil) {
		t.Fatalf("fresh decode: %v; decode into reused storage: %v", err, errInto)
	}
	if err != nil {
		return
	}
	if !same(m, reused) {
		t.Fatalf("decoding into reused storage gives %+v, a fresh decode %+v", reused, m)
	}
	for i := range in {
		in[i] ^= 0xFF
	}
	for _, m := range []M{m, reused} {
		out, err := encode(m)
		if err != nil {
			t.Fatalf("re-encoding a decoded message: %v", err)
		}
		if !bytes.Equal(out, orig) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", orig, out)
		}
		if len(out) != cap(out) {
			t.Fatalf("re-encoding has length %d but capacity %d", len(out), cap(out))
		}
	}
}

// sameValues compares value lists entry by entry, floats by their bits,
// an empty list equal to a nil one.
func sameValues(a, b []Value) bool {
	return slices.EqualFunc(a, b, func(x, y Value) bool {
		if math.Float64bits(x.Float) != math.Float64bits(y.Float) {
			return false
		}
		x.Float, y.Float = 0, 0
		return reflect.DeepEqual(x, y)
	})
}

// samePayloads compares payload lists entry by entry, an empty list equal
// to a nil one; an entry is nil in both or equal in both.
func samePayloads(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, func(x, y []byte) bool { return (x == nil) == (y == nil) && bytes.Equal(x, y) })
}

func sameCall(a, b Call) bool {
	return a.API == b.API && sameValues(a.Args, b.Args) && samePayloads(a.Payloads, b.Payloads) && slices.Equal(a.Release, b.Release)
}

func sameReply(a, b Reply) bool {
	return sameValues(a.Results, b.Results) && samePayloads(a.Payloads, b.Payloads) &&
		sameValues(a.UpdatedArgs, b.UpdatedArgs) && samePayloads(a.UpdatedPayloads, b.UpdatedPayloads)
}

// fuzzNames is the registry FuzzDecodeCall's reusing decode takes API
// names from; seedNamed names its one API.
var fuzzNames = func() *Registry {
	r := NewRegistry()
	r.Register(&API{Name: "cv.imread"})
	return r
}()

var seedNamed = Call{API: "cv.imread", Args: []Value{Str("/in.img")}, Payloads: [][]byte{nil}}

func FuzzDecodeCall(f *testing.F) {
	for _, c := range []Call{goldenCall, goldenReleaseCall, seedNamed} {
		b, err := EncodeCall(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// Storage that last held the golden call, with a release list. It
		// is decoded, not copied from goldenCall: a decode writes into the
		// header arrays its storage holds.
		reused, err := DecodeCall(unhex(t, goldenCallHex))
		if err != nil {
			t.Fatal(err)
		}
		reused.Release = []Released{{PID: 3, ID: 300}, {PID: 2, ID: 5}}
		decodeInto := func(c *Call, b []byte) error { return DecodeCallInto(c, b, fuzzNames) }
		checkCanonical(t, in, reused, DecodeCall, decodeInto, EncodeCall, sameCall)
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		reused, err := DecodeReply(unhex(t, goldenReplyHex))
		if err != nil {
			t.Fatal(err)
		}
		checkCanonical(t, in, reused, DecodeReply, DecodeReplyInto, EncodeReply, sameReply)
	})
}
