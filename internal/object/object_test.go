package object

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"

	"freepart.dev/freepart/internal/mem"
)

func TestMatBasics(t *testing.T) {
	s := mem.NewSpace()
	m, err := NewMat(s, 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 4 || m.Cols() != 6 || m.Channels() != 3 || m.Size() != 72 {
		t.Fatalf("shape = %v", m)
	}
	if err := m.Set(2, 3, 1, 0x7F); err != nil {
		t.Fatal(err)
	}
	v, err := m.At(2, 3, 1)
	if err != nil || v != 0x7F {
		t.Fatalf("At = %v, %v", v, err)
	}
	if v, _ := m.At(0, 0, 0); v != 0 {
		t.Fatal("untouched pixel should be zero")
	}
}

func TestMatBounds(t *testing.T) {
	s := mem.NewSpace()
	m, _ := NewMat(s, 2, 2, 1)
	for _, c := range [][3]int{{-1, 0, 0}, {2, 0, 0}, {0, 2, 0}, {0, 0, 1}} {
		if _, err := m.At(c[0], c[1], c[2]); err == nil {
			t.Fatalf("At(%v) should fail", c)
		}
		if err := m.Set(c[0], c[1], c[2], 1); err == nil {
			t.Fatalf("Set(%v) should fail", c)
		}
	}
}

func TestMatInvalidShape(t *testing.T) {
	s := mem.NewSpace()
	for _, sh := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if _, err := NewMat(s, sh[0], sh[1], sh[2]); err == nil {
			t.Fatalf("NewMat(%v) should fail", sh)
		}
	}
	if _, err := MatFromBytes(s, 2, 2, 1, []byte{1, 2, 3}); err == nil {
		t.Fatal("MatFromBytes with wrong length should fail")
	}
}

// TestCopyIntoMat: a copy of a mat, into a second space or into the
// mat's own, is a deep copy of its shape and bytes.
func TestCopyIntoMat(t *testing.T) {
	a := mem.NewSpace()
	m, _ := NewMat(a, 2, 3, 1)
	_ = m.Set(1, 2, 0, 42)
	for _, dst := range []*mem.AddressSpace{mem.NewSpace(), a} {
		o, err := CopyInto(dst, Ref{Kind: KindMat, Header: m.Header()}, m)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := o.(*Mat)
		if !ok || c.Space() != dst || c.Rows() != 2 || c.Cols() != 3 || dst == a && c.Region() == m.Region() {
			t.Fatalf("copy = %v in %v", o, o.Space())
		}
		if v, _ := c.At(1, 2, 0); v != 42 {
			t.Fatalf("copied pixel = %d", v)
		}
		// Writing the copy leaves the original untouched (deep copy).
		_ = c.Set(1, 2, 0, 7)
		if v, _ := m.At(1, 2, 0); v != 42 {
			t.Fatal("deep copy violated")
		}
	}
}

func TestMatRespectsPermissions(t *testing.T) {
	s := mem.NewSpace()
	m, _ := NewMat(s, 8, 8, 1)
	if _, err := s.ProtectRegion(m.Region(), mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(0, 0, 0, 1); err == nil {
		t.Fatal("Set on read-only mat should fault")
	}
	if _, err := m.At(0, 0, 0); err != nil {
		t.Fatalf("At on read-only mat should work: %v", err)
	}
}

func TestMatHeaderRoundTrip(t *testing.T) {
	s := mem.NewSpace()
	m, _ := NewMat(s, 5, 7, 3)
	r, c, ch, err := MatShapeFromHeader(m.Header())
	if err != nil || r != 5 || c != 7 || ch != 3 {
		t.Fatalf("header round trip = %d,%d,%d,%v", r, c, ch, err)
	}
	if _, _, _, err := MatShapeFromHeader([]byte{1, 2}); err == nil {
		t.Fatal("short header should fail")
	}
}

func TestTensorBasics(t *testing.T) {
	s := mem.NewSpace()
	ten, err := NewTensor(s, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ten.Len() != 6 || ten.Size() != 48 {
		t.Fatalf("len/size = %d/%d", ten.Len(), ten.Size())
	}
	if err := ten.Set(3.14, 1, 2); err != nil {
		t.Fatal(err)
	}
	v, err := ten.At(1, 2)
	if err != nil || v != 3.14 {
		t.Fatalf("At = %v, %v", v, err)
	}
	if v, _ := ten.At(0, 0); v != 0 {
		t.Fatal("untouched element should be zero")
	}
}

func TestTensorBounds(t *testing.T) {
	s := mem.NewSpace()
	ten, _ := NewTensor(s, 2, 2)
	if _, err := ten.At(2, 0); err == nil {
		t.Fatal("out-of-range At should fail")
	}
	if err := ten.Set(1, 0); err == nil {
		t.Fatal("wrong-arity Set should fail")
	}
	if _, err := ten.AtFlat(4); err == nil {
		t.Fatal("out-of-range AtFlat should fail")
	}
	if err := ten.SetFlat(-1, 0); err == nil {
		t.Fatal("negative SetFlat should fail")
	}
}

func TestTensorInvalidShape(t *testing.T) {
	s := mem.NewSpace()
	if _, err := NewTensor(s); err == nil {
		t.Fatal("empty shape should fail")
	}
	if _, err := NewTensor(s, 2, 0); err == nil {
		t.Fatal("zero dim should fail")
	}
}

// TestCopyIntoTensor: a copy of a tensor, into a second space or into the
// tensor's own, has its shape and elements.
func TestCopyIntoTensor(t *testing.T) {
	a := mem.NewSpace()
	ten := tensorOf(t, a, 1.5, -2.5, 0)
	for _, dst := range []*mem.AddressSpace{mem.NewSpace(), a} {
		o, err := CopyInto(dst, Ref{Kind: KindTensor, Header: ten.Header()}, ten)
		if err != nil {
			t.Fatal(err)
		}
		cl := o.(*Tensor)
		if cl.Space() != dst || !slices.Equal(cl.Shape(), []int{3}) || dst == a && cl.Region() == ten.Region() {
			t.Fatalf("copy = %v", cl)
		}
		for i, want := range []float64{1.5, -2.5, 0} {
			if v, _ := cl.AtFlat(i); v != want {
				t.Fatalf("copy[%d] = %v, want %v", i, v, want)
			}
		}
	}
}

func TestTensorHeaderRoundTrip(t *testing.T) {
	s := mem.NewSpace()
	ten, _ := NewTensor(s, 2, 3, 4)
	shape, err := TensorShapeFromHeader(ten.Header())
	if err != nil || len(shape) != 3 || shape[0] != 2 || shape[1] != 3 || shape[2] != 4 {
		t.Fatalf("shape = %v, %v", shape, err)
	}
	if _, err := TensorShapeFromHeader([]byte{0}); err == nil {
		t.Fatal("short tensor header should fail")
	}
}

func TestTensorSetAtProperty(t *testing.T) {
	s := mem.NewSpace()
	ten, _ := NewTensor(s, 16)
	f := func(i uint8, v float64) bool {
		idx := int(i) % 16
		if err := ten.SetFlat(idx, v); err != nil {
			return false
		}
		got, err := ten.AtFlat(idx)
		return err == nil && (got == v || (got != got && v != v)) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlob(t *testing.T) {
	s := mem.NewSpace()
	b, err := NewBlob(s, []byte("model weights"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Bytes()
	if err != nil || string(got) != "model weights" {
		t.Fatalf("Bytes = %q, %v", got, err)
	}
	if b.Size() != 13 || b.Kind() != KindBlob || b.Header() != nil {
		t.Fatalf("blob metadata wrong: %d %v", b.Size(), b.Kind())
	}
	if _, err := NewBlob(s, nil); err == nil {
		t.Fatal("empty blob should fail")
	}
	for _, dst := range []*mem.AddressSpace{mem.NewSpace(), s} {
		c, err := CopyInto(dst, Ref{Kind: KindBlob}, b)
		if err != nil {
			t.Fatal(err)
		}
		if cb, _ := c.(*Blob).Bytes(); string(cb) != "model weights" || c.Space() != dst || dst == s && c.Region() == b.Region() {
			t.Fatalf("blob copy = %q in %v", cb, c.Region())
		}
	}
}

func TestTablePutGetDelete(t *testing.T) {
	s := mem.NewSpace()
	tab := NewTable(42)
	m, _ := NewMat(s, 2, 2, 1)
	id := tab.Put(m)
	got, ok := tab.Get(id)
	if !ok || got != Object(m) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if tab.Len() != 1 {
		t.Fatal("Len wrong")
	}
	tab.Delete(id)
	if _, ok := tab.Get(id); ok {
		t.Fatal("deleted object still present")
	}
}

func TestTableIDsUnique(t *testing.T) {
	s := mem.NewSpace()
	tab := NewTable(1)
	m, _ := NewMat(s, 1, 1, 1)
	a, b := tab.Put(m), tab.Put(m)
	if a == b {
		t.Fatal("ids must be unique")
	}
}

func TestRefEncodeDecodeRoundTrip(t *testing.T) {
	s := mem.NewSpace()
	tab := NewTable(9)
	m, _ := NewMat(s, 3, 3, 1)
	_ = m.Set(1, 1, 0, 200)
	id := tab.Put(m)
	ref, err := tab.RefFor(id)
	if err != nil {
		t.Fatal(err)
	}
	var dec Ref
	if err := DecodeRefInto(&dec, ref.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if dec.PID != 9 || dec.ID != id || dec.Size != 9 || dec.Kind != KindMat || dec.Hash != ref.Hash {
		t.Fatalf("decoded = %+v, want %+v", dec, ref)
	}
	if !bytes.Equal(dec.Header, ref.Header) {
		t.Fatal("header lost in round trip")
	}
	// A second decode into the same Ref copies the header into the array
	// it already holds.
	header := dec.Header
	if err := DecodeRefInto(&dec, ref.Append(nil)); err != nil || &dec.Header[0] != &header[0] || !bytes.Equal(dec.Header, ref.Header) {
		t.Fatalf("decoding into a held header array: %v, header %x", err, dec.Header)
	}
}

func TestDecodeRefShort(t *testing.T) {
	var r Ref
	if err := DecodeRefInto(&r, []byte{1, 2, 3}); err == nil {
		t.Fatal("short ref should fail to decode")
	}
}

func TestRefForMissing(t *testing.T) {
	tab := NewTable(1)
	if _, err := tab.RefFor(99); err == nil {
		t.Fatal("RefFor of missing id should fail")
	}
}

func TestRefHashChangesWithContent(t *testing.T) {
	s := mem.NewSpace()
	tab := NewTable(1)
	m, _ := NewMat(s, 2, 2, 1)
	id := tab.Put(m)
	r1, _ := tab.RefFor(id)
	_ = m.Set(0, 0, 0, 99)
	r2, _ := tab.RefFor(id)
	if r1.Hash == r2.Hash {
		t.Fatal("content hash should change when payload changes")
	}
}

func TestRebuildMat(t *testing.T) {
	src, dst := mem.NewSpace(), mem.NewSpace()
	tab := NewTable(1)
	m, _ := MatFromBytes(src, 2, 2, 1, []byte{1, 2, 3, 4})
	id := tab.Put(m)
	ref, _ := tab.RefFor(id)
	payload, _ := PayloadBytes(m)
	o, err := Rebuild(dst, ref, payload)
	if err != nil {
		t.Fatal(err)
	}
	rm, ok := o.(*Mat)
	if !ok || rm.Rows() != 2 || rm.Cols() != 2 {
		t.Fatalf("rebuilt = %v", o)
	}
	v, _ := rm.At(1, 1, 0)
	if v != 4 {
		t.Fatalf("rebuilt pixel = %d", v)
	}
}

func TestRebuildTensorAndBlob(t *testing.T) {
	src, dst := mem.NewSpace(), mem.NewSpace()
	tab := NewTable(1)

	ten := tensorOf(t, src, 5, 6)
	tid := tab.Put(ten)
	tref, _ := tab.RefFor(tid)
	tp, _ := PayloadBytes(ten)
	o, err := Rebuild(dst, tref, tp)
	if err != nil {
		t.Fatal(err)
	}
	rt := o.(*Tensor)
	if v, _ := rt.AtFlat(1); v != 6 {
		t.Fatalf("rebuilt tensor[1] = %v", v)
	}

	bl, _ := NewBlob(src, []byte("xyz"))
	bid := tab.Put(bl)
	bref, _ := tab.RefFor(bid)
	bp, _ := PayloadBytes(bl)
	o, err = Rebuild(dst, bref, bp)
	if err != nil {
		t.Fatal(err)
	}
	rb := o.(*Blob)
	if got, _ := rb.Bytes(); string(got) != "xyz" {
		t.Fatalf("rebuilt blob = %q", got)
	}
}

func TestRebuildBadPayload(t *testing.T) {
	src, dst := mem.NewSpace(), mem.NewSpace()
	tab := NewTable(1)
	ten, _ := NewTensor(src, 4)
	ref, _ := tab.RefFor(tab.Put(ten))
	if _, err := Rebuild(dst, ref, []byte{1, 2}); err == nil {
		t.Fatal("tensor rebuild with short payload should fail")
	}
	ref.Kind = Kind(99)
	if _, err := Rebuild(dst, ref, nil); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

// TestCopyIntoActsAsRebuild: CopyInto refuses a ref that does not fit the
// source's payload with Rebuild's error for that payload, touching neither
// space, and otherwise leaves both spaces' counters, hook calls and
// allocations as PayloadBytes of the source followed by Rebuild does: a
// read the source refuses allocates nothing, and a write the destination
// refuses leaves its region allocated.
func TestCopyIntoActsAsRebuild(t *testing.T) {
	type outcome struct {
		err                 string
		srcBefore, src, dst mem.Stats
		srcHook, dstHook    int
		dstRegions          []mem.Region
	}
	run := func(viaCopy bool, ref Ref, srcPerm mem.Perm, refuseWrite bool) outcome {
		src, dst := mem.NewSpace(), mem.NewSpace()
		var out outcome
		ten := tensorOf(t, src, 1, 2, 3, 4)
		src.SetAccessHook(func(mem.Addr, int, mem.AccessKind) error { out.srcHook++; return nil })
		dst.SetAccessHook(func(_ mem.Addr, _ int, kind mem.AccessKind) error {
			out.dstHook++
			if refuseWrite && kind == mem.AccessWrite {
				return errors.New("write refused")
			}
			return nil
		})
		_, _ = src.ProtectRegion(ten.Region(), srcPerm)
		out.srcBefore = src.Stats()
		var err error
		if viaCopy {
			_, err = CopyInto(dst, ref, ten)
		} else if payload, lerr := PayloadBytes(ten); lerr != nil {
			err = lerr
		} else {
			_, err = Rebuild(dst, ref, payload)
		}
		if f, ok := mem.IsFault(err); ok && f.Space == src.ID() {
			f.Space = 0 // the two runs' spaces differ only in their ids
		}
		if err != nil {
			out.err = err.Error()
		}
		out.src, out.dst, out.dstRegions = src.Stats(), dst.Stats(), dst.Regions()
		return out
	}
	tensorRef := func(dims ...int) Ref {
		h := binary.BigEndian.AppendUint32(nil, uint32(len(dims)))
		for _, d := range dims {
			h = binary.BigEndian.AppendUint32(h, uint32(d))
		}
		return Ref{Kind: KindTensor, Header: h}
	}
	for _, c := range []struct {
		name        string
		ref         Ref
		perm        mem.Perm
		refuseWrite bool
	}{
		{"fits", tensorRef(2, 2), mem.PermRW, false},
		{"source unreadable", tensorRef(4), mem.PermNone, false},
		{"destination refuses the write", tensorRef(4), mem.PermRead, true},
		{"short shape", tensorRef(3), mem.PermRW, false},
		{"bad tensor header", Ref{Kind: KindTensor, Header: []byte{0, 0}}, mem.PermRW, false},
		{"as a mat", Ref{Kind: KindMat, Header: []byte{0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 4}}, mem.PermRW, false},
		{"as a blob", Ref{Kind: KindBlob}, mem.PermRW, false},
		{"unknown kind", Ref{Kind: Kind(99)}, mem.PermRW, false},
	} {
		got, want := run(true, c.ref, c.perm, c.refuseWrite), run(false, c.ref, c.perm, c.refuseWrite)
		if got.err != want.err {
			t.Errorf("%s: error %q, Rebuild %q", c.name, got.err, want.err)
		}
		if want.err != "" && want.src.Faults == 0 && want.dstHook == 0 {
			// Rebuild refused the ref after loading the payload; CopyInto
			// refuses it before touching either space.
			if got.src != got.srcBefore || got.srcHook != 0 || got.dst != (mem.Stats{}) || len(got.dstRegions) != 0 {
				t.Errorf("%s: a ref that does not fit touched a space: %+v", c.name, got)
			}
			continue
		}
		if got.src != want.src || got.dst != want.dst || got.srcHook != want.srcHook || got.dstHook != want.dstHook || !slices.Equal(got.dstRegions, want.dstRegions) {
			t.Errorf("%s: CopyInto %+v, PayloadBytes then Rebuild %+v", c.name, got, want)
		}
	}
}

func TestContentHashBlockedByPermNone(t *testing.T) {
	s := mem.NewSpace()
	m, _ := NewMat(s, 2, 2, 1)
	_, _ = s.ProtectRegion(m.Region(), mem.PermNone)
	if _, err := ContentHash(m); err == nil {
		t.Fatal("hash of unreadable object should fault")
	}
}

// TestReadPathAllocs pins the allocations of the mediated read path: an
// element read, a content hash and a view of a tensor of a page or more
// copy nothing to the heap, and Values allocates only its result.
func TestReadPathAllocs(t *testing.T) {
	s := mem.NewSpace()
	ten, err := NewTensor(s, 3*mem.PageSize/8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
		read func() error
	}{
		{"Tensor.AtFlat", 0, func() error { _, err := ten.AtFlat(5); return err }},
		{"ContentHash of 3 pages", 0, func() error { _, err := ContentHash(ten); return err }},
		{"Tensor.Values", 1, func() error { _, err := ten.Values(); return err }},
		{"Tensor.View of 3 pages", 0, func() error { _, err := ten.View(); return err }},
	} {
		if err := c.read(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = c.read() }); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// TestWritePathAllocs pins the allocations of the in-place writes:
// SetValues and Fill encode into the tensor's region with none, and
// CopyInto into a span a freed copy left makes only the new object.
// MatFromBytes and NewBlob into a fresh span make only the object and its
// mapping's page records: the region takes the buffer over as its slab.
func TestWritePathAllocs(t *testing.T) {
	src, dst := mem.NewSpace(), mem.NewSpace()
	ten, err := NewTensor(src, 3*mem.PageSize/8)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, ten.Len())
	m, err := NewMat(src, 64, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := Ref{Kind: KindMat, Header: m.Header()}
	buf := make([]byte, 3*mem.PageSize)
	copyAndFree := func() error {
		o, err := CopyInto(dst, ref, m)
		if err != nil {
			return err
		}
		return dst.Free(o.Region())
	}
	for _, c := range []struct {
		name  string
		want  float64
		write func() error
	}{
		{"Tensor.SetValues of 3 pages", 0, func() error { return ten.SetValues(vals) }},
		{"Tensor.Fill of 3 pages", 0, func() error { return ten.Fill(func(i int) float64 { return float64(i) }) }},
		{"CopyInto of a 3-page mat", 1, copyAndFree},
		{"MatFromBytes of 3 pages", 2, func() error { _, err := MatFromBytes(src, 3, mem.PageSize, 1, buf); return err }},
		{"NewBlob of 3 pages", 2, func() error { _, err := NewBlob(src, buf); return err }},
	} {
		if err := c.write(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = c.write() }); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// TestBulkReadsSpanPages: Values and ContentHash load a payload a page at
// a time, and a View in one load. On a tensor that ends part-way into its
// fourth page they must see every byte a whole-payload load sees, and a
// view keeps those bytes when Fill then rewrites the tensor.
func TestBulkReadsSpanPages(t *testing.T) {
	s := mem.NewSpace()
	ten, err := NewTensor(s, 3*mem.PageSize/8+5)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, ten.Len())
	for i := range want {
		want[i] = float64(i)*0.5 - 7
	}
	if err := ten.SetValues(want); err != nil {
		t.Fatal(err)
	}
	if got, err := ten.Values(); err != nil || !slices.Equal(got, want) {
		t.Fatalf("Values differs from the stored elements (err %v)", err)
	}
	raw, err := PayloadBytes(ten)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	_, _ = h.Write(raw)
	if sum, err := ContentHash(ten); err != nil || sum != h.Sum64() {
		t.Fatalf("ContentHash = %x, %v; want %x", sum, err, h.Sum64())
	}
	v, err := ten.View()
	if err != nil || v.Len() != len(want) || !bytes.Equal(v.Append(nil), raw) {
		t.Fatalf("View holds %d elements (err %v), or other bytes than the payload", v.Len(), err)
	}
	if err := ten.Fill(func(i int) float64 { return -v.At(i) }); err != nil {
		t.Fatal(err)
	}
	got, err := ten.Values()
	for i := range want {
		if err != nil || v.At(i) != want[i] || got[i] != -want[i] {
			t.Fatalf("element %d: view %v, filled %v (err %v); want %v and %v", i, v.At(i), got[i], err, want[i], -want[i])
		}
	}
}

// tensorOf allocates a 1-D tensor in space holding vals.
func tensorOf(tb testing.TB, space *mem.AddressSpace, vals ...float64) *Tensor {
	tb.Helper()
	ten, err := NewTensor(space, len(vals))
	if err == nil {
		err = ten.SetValues(vals)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return ten
}
