package mem

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocZeroed(t *testing.T) {
	s := NewSpace()
	r, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(r.Base, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestAllocInvalidSize(t *testing.T) {
	s := NewSpace()
	if _, err := s.Alloc(0); err == nil {
		t.Fatal("Alloc(0) should fail")
	}
	if _, err := s.Alloc(-1); err == nil {
		t.Fatal("Alloc(-1) should fail")
	}
}

func TestAllocPageAligned(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc(10)
	b, _ := s.Alloc(10)
	if uint64(a.Base)%PageSize != 0 || uint64(b.Base)%PageSize != 0 {
		t.Fatalf("allocations not page aligned: %#x, %#x", a.Base, b.Base)
	}
	if a.Base.PageIndex() == b.Base.PageIndex() {
		t.Fatal("separate allocations share a page")
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(10000) // spans multiple pages
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := s.Store(r.Base, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(r.Base, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestStoreLoadRoundTripProperty(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(1 << 16)
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		o := int(off) % (1<<16 - len(data))
		if o < 0 {
			o = 0
		}
		addr := r.Base + Addr(o)
		if err := s.Store(addr, data); err != nil {
			return false
		}
		got, err := s.Load(addr, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	s := NewSpace()
	_, err := s.Load(0x10, 1) // page zero is never mapped
	f, ok := IsFault(err)
	if !ok {
		t.Fatalf("want Fault, got %v", err)
	}
	if f.Mapped {
		t.Fatal("fault should report unmapped")
	}
	if f.Kind != AccessRead {
		t.Fatalf("fault kind = %v, want read", f.Kind)
	}
}

func TestReadOnlyProtection(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize * 2)
	if err := s.Store(r.Base, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProtectRegion(r, PermRead); err != nil {
		t.Fatal(err)
	}
	// Reads still work.
	got, err := s.Load(r.Base, 5)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read after protect: %q, %v", got, err)
	}
	// Writes fault.
	err = s.Store(r.Base, []byte("x"))
	f, ok := IsFault(err)
	if !ok {
		t.Fatalf("want write fault, got %v", err)
	}
	if f.Kind != AccessWrite || !f.Mapped {
		t.Fatalf("fault = %+v, want mapped write fault", f)
	}
	// Restore and write again.
	if _, err := s.ProtectRegion(r, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(r.Base, []byte("x")); err != nil {
		t.Fatalf("write after unprotect: %v", err)
	}
}

func TestProtectPageCount(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize*3 - 1)
	n, err := s.ProtectRegion(r, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("protected %d pages, want 3", n)
	}
}

func TestProtectUnmappedFails(t *testing.T) {
	s := NewSpace()
	if _, err := s.Protect(Addr(1<<20), PageSize, PermRead); err == nil {
		t.Fatal("protect of unmapped page should fail")
	}
}

func TestNoReadPermFaults(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	if _, err := s.ProtectRegion(r, PermNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(r.Base, 1); err == nil {
		t.Fatal("read of PROT_NONE page should fault")
	}
	if err := s.Store(r.Base, []byte{1}); err == nil {
		t.Fatal("write of PROT_NONE page should fault")
	}
}

func TestFreeUnmaps(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	if err := s.Free(r); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(r.Base, 1); err == nil {
		t.Fatal("read of freed region should fault")
	}
	if got := len(s.Regions()); got != 0 {
		t.Fatalf("regions after free = %d, want 0", got)
	}
}

func TestRegionOf(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(100)
	got, ok := s.RegionOf(r.Base + 50)
	if !ok || got.Base != r.Base {
		t.Fatalf("RegionOf = %+v, %v", got, ok)
	}
	if _, ok := s.RegionOf(r.End() + PageSize); ok {
		t.Fatal("RegionOf outside any region should report false")
	}
}

func TestRegionOverlaps(t *testing.T) {
	a := Region{Base: 0x1000, Size: 0x1000}
	b := Region{Base: 0x1800, Size: 0x1000}
	c := Region{Base: 0x3000, Size: 0x1000}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Fatal("a and c should not overlap")
	}
}

func TestOutOfMemory(t *testing.T) {
	s := NewSpace()
	s.SetLimit(PageSize * 4)
	if _, err := s.Alloc(PageSize * 2); err != nil {
		t.Fatal(err)
	}
	_, err := s.Alloc(PageSize * 16)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestCrossSpaceCopy(t *testing.T) {
	a, b := NewSpace(), NewSpace()
	ra, _ := a.Alloc(64)
	want := []byte("isolation boundary crossing")
	if err := a.Store(ra.Base, want); err != nil {
		t.Fatal(err)
	}
	rb, err := Copy(b, a, ra.Base, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Size != len(want) {
		t.Fatalf("copy region %+v, want %d bytes", rb, len(want))
	}
	got, _ := b.Load(rb.Base, rb.Size)
	if !bytes.Equal(got, want) {
		t.Fatalf("copy mismatch: %q", got)
	}
	// Within one space: a new region with the same bytes.
	rc, err := Copy(a, a, ra.Base, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Overlaps(ra) {
		t.Fatalf("copy within a space reused its source: %+v, %+v", rc, ra)
	}
	if got, _ := a.Load(rc.Base, rc.Size); !bytes.Equal(got, want) {
		t.Fatalf("copy within a space: %q", got)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Loads != 3 || sa.Stores != 2 || sb.Loads != 1 || sb.Stores != 1 || sa.BytesStored != 2*uint64(len(want)) {
		t.Fatalf("stats %+v and %+v, want each copy counted as a load and a store", sa, sb)
	}
}

// TestCrossSpaceCopyHonorsPerms: a source the reader may not read faults
// before anything is allocated in the destination, and a write the
// destination's hook refuses faults with the new region left allocated, as
// a refused Store into it leaves it.
func TestCrossSpaceCopyHonorsPerms(t *testing.T) {
	a, b := NewSpace(), NewSpace()
	ra, _ := a.Alloc(64)
	if _, err := a.ProtectRegion(ra, PermNone); err != nil {
		t.Fatal(err)
	}
	_, err := Copy(b, a, ra.Base, 8)
	if f, ok := IsFault(err); !ok || f.Space != a.ID() || f.Kind != AccessRead {
		t.Fatalf("copy from an unreadable region should fault on the read, got %v", err)
	}
	if len(b.Regions()) != 0 || b.Stats() != (Stats{}) {
		t.Fatalf("a refused read allocated or counted in the destination: %v, %+v", b.Regions(), b.Stats())
	}
	if _, err := a.ProtectRegion(ra, PermRead); err != nil {
		t.Fatal(err)
	}
	b.SetAccessHook(func(_ Addr, _ int, kind AccessKind) error {
		if kind == AccessWrite {
			return errors.New("write refused")
		}
		return nil
	})
	if _, err := Copy(b, a, ra.Base, 8); err == nil || err.Error() != "write refused" {
		t.Fatalf("copy into a refusing destination = %v", err)
	}
	if st := b.Stats(); len(b.Regions()) != 1 || st.Faults != 1 || st.Stores != 0 {
		t.Fatalf("after a refused write: regions %v, stats %+v", b.Regions(), st)
	}
}

// TestCopyOppositeDirections: copies from A to B and from B to A at once,
// with hooks on both spaces, finish. Copy takes the two locks in SpaceID
// order, so neither copy holds one lock while it waits for the other.
func TestCopyOppositeDirections(t *testing.T) {
	a, b := NewSpace(), NewSpace()
	var mu sync.Mutex
	hookCalls := 0
	hook := func(Addr, int, AccessKind) error {
		mu.Lock()
		hookCalls++
		mu.Unlock()
		return nil
	}
	a.SetAccessHook(hook)
	b.SetAccessHook(hook)
	ra, _ := a.Alloc(2 * PageSize)
	rb, _ := b.Alloc(2 * PageSize)
	const copies = 2000
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, dir := range []struct {
		dst, src *AddressSpace
		from     Region
	}{{b, a, ra}, {a, b, rb}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < copies; i++ {
				r, err := Copy(dir.dst, dir.src, dir.from.Base, dir.from.Size)
				if err == nil {
					err = dir.dst.Free(r)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hookCalls != 4*copies {
		t.Fatalf("%d hook calls, want %d", hookCalls, 4*copies)
	}
}

// TestStoreInPlace: the caller writes the stored bytes where they land, one
// call per region the range covers, counted and checked as one Store.
func TestStoreInPlace(t *testing.T) {
	s := NewSpace()
	r1, _ := s.Alloc(PageSize)
	r2, _ := s.Alloc(100)
	var calls []int
	err := s.StoreInPlace(r1.End()-10, 20, func(b []byte) {
		calls = append(calls, len(b))
		for i := range b {
			b[i] = 0xAB
		}
	})
	if err != nil || len(calls) != 2 || calls[0] != 10 || calls[1] != 10 {
		t.Fatalf("StoreInPlace across two regions: calls %v, %v", calls, err)
	}
	if got, _ := s.Load(r1.End()-10, 20); !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 20)) {
		t.Fatalf("stored bytes %x", got)
	}
	if _, err := s.ProtectRegion(r2, PermRead); err != nil {
		t.Fatal(err)
	}
	err = s.StoreInPlace(r2.Base, 4, func([]byte) { t.Fatal("write called after a refused check") })
	if _, ok := IsFault(err); !ok {
		t.Fatalf("store into a read-only region = %v", err)
	}
	if st := s.Stats(); st.Stores != 1 || st.BytesStored != 20 || st.Faults != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSpacesAreIsolated(t *testing.T) {
	// Writing in one space never changes another space's bytes, even at the
	// same virtual address — the property FreePart's process isolation
	// depends on.
	a, b := NewSpace(), NewSpace()
	ra, _ := a.Alloc(64)
	rb, _ := b.Alloc(64)
	if ra.Base != rb.Base {
		t.Fatalf("expected identical layout, got %#x vs %#x", ra.Base, rb.Base)
	}
	if err := a.Store(ra.Base, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	got, _ := b.LoadByte(rb.Base)
	if got != 0 {
		t.Fatalf("space b observed space a's write: %#x", got)
	}
}

func TestStats(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	_ = s.Store(r.Base, []byte{1, 2, 3})
	_, _ = s.Load(r.Base, 2)
	_, _ = s.ProtectRegion(r, PermRead)
	_ = s.Store(r.Base, []byte{9}) // faults
	st := s.Stats()
	if st.Stores != 1 || st.Loads != 1 || st.Protects != 1 || st.Faults != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesStored != 3 || st.BytesLoaded != 2 {
		t.Fatalf("byte stats = %+v", st)
	}
	if st.PagesMapped != 1 {
		t.Fatalf("pages mapped = %d, want 1", st.PagesMapped)
	}
}

func TestDistinctSpaceIDs(t *testing.T) {
	if NewSpace().ID() == NewSpace().ID() {
		t.Fatal("space ids must be unique")
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{
		PermNone:            "---",
		PermRead:            "r--",
		PermRW:              "rw-",
		PermRead | PermExec: "r-x",
		PermWrite:           "-w-",
		PermRW | PermExec:   "rwx",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestFaultErrorStrings(t *testing.T) {
	f := &Fault{Space: 3, Addr: 0x2000, Kind: AccessWrite, Perm: PermRead, Mapped: true}
	if f.Error() == "" {
		t.Fatal("empty error string")
	}
	u := &Fault{Space: 3, Addr: 0x2000, Kind: AccessRead}
	if u.Error() == "" {
		t.Fatal("empty unmapped error string")
	}
}

func TestAllocReusesFreedSpans(t *testing.T) {
	s := NewSpace()
	s.SetLimit(PageSize * 8)
	// Alloc/free far more than the limit would allow without reuse.
	for i := 0; i < 64; i++ {
		r, err := s.Alloc(PageSize)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := s.Store(r.Base, []byte{0xAB}); err != nil {
			t.Fatal(err)
		}
		if err := s.Free(r); err != nil {
			t.Fatal(err)
		}
	}
	// Reused pages come back zeroed.
	r, _ := s.Alloc(PageSize)
	b, _ := s.LoadByte(r.Base)
	if b != 0 {
		t.Fatalf("reused page not zeroed: %#x", b)
	}
}

func TestFreedSpanSplit(t *testing.T) {
	s := NewSpace()
	big, _ := s.Alloc(PageSize * 4)
	if err := s.Store(big.Base, bytes.Repeat([]byte{0xEE}, big.Size)); err != nil {
		t.Fatal(err)
	}
	_ = s.Free(big)
	a, _ := s.Alloc(PageSize)     // carves from the freed span
	b, _ := s.Alloc(PageSize * 3) // takes the remainder
	if a.Base != big.Base || b.Base != big.Base+PageSize {
		t.Fatalf("split placement: a=%#x b=%#x big=%#x", a.Base, b.Base, big.Base)
	}
	// Both parts come back zeroed, and writing one leaves the other alone
	// although they share the freed span's slab.
	if err := s.Store(a.Base, bytes.Repeat([]byte{0x11}, a.Size)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(b.Base, b.Size)
	if err != nil || !bytes.Equal(got, make([]byte, b.Size)) {
		t.Fatalf("remainder after reuse: %v, zeroed %v", err, bytes.Equal(got, make([]byte, b.Size)))
	}
}

// TestAccessAcrossAdjacentRegions checks that one access may span
// neighbouring regions, and faults at the first page past them once one is
// freed.
func TestAccessAcrossAdjacentRegions(t *testing.T) {
	s := NewSpace()
	a, _ := s.Alloc(PageSize + 10)
	b, _ := s.Alloc(PageSize)
	c, _ := s.Alloc(PageSize)
	if b.Base != a.Base+2*PageSize || c.Base != b.Base+PageSize {
		t.Fatalf("regions not adjacent: %v %v %v", a, b, c)
	}
	want := make([]byte, 3*PageSize)
	for i := range want {
		want[i] = byte(i % 251)
	}
	at := a.Base + PageSize
	if err := s.Store(at, want); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Load(at, len(want)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("load across regions: %v", err)
	}
	if err := s.Free(b); err != nil {
		t.Fatal(err)
	}
	_, err := s.Load(at, len(want))
	if f, ok := IsFault(err); !ok || f.Mapped || f.Addr != b.Base {
		t.Fatalf("load across a freed region = %v, want unmapped fault at %#x", err, b.Base)
	}
}

// TestBadRangesFailBeforeAllocating checks that a range that wraps the
// address space, and a length no region could hold or that is not
// positive, fail with ErrBadRange or an unmapped fault instead of
// panicking or sizing a buffer from the length.
func TestBadRangesFailBeforeAllocating(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	wrap := ^Addr(0) - 10
	top := ^Addr(0) &^ (PageSize - 1)
	unmappedAt := func(want Addr) func(error) bool {
		return func(err error) bool {
			f, ok := IsFault(err)
			return ok && !f.Mapped && f.Addr == want
		}
	}
	badRange := func(err error) bool { return errors.Is(err, ErrBadRange) }
	for _, c := range []struct {
		name string
		op   func() error
		ok   func(error) bool
	}{
		{"Load wraps", func() error { _, err := s.Load(wrap, 100); return err }, unmappedAt(top)},
		{"LoadAt wraps", func() error { return s.LoadAt(wrap, make([]byte, 100)) }, unmappedAt(top)},
		{"Store wraps", func() error { return s.Store(wrap, make([]byte, 100)) }, unmappedAt(top)},
		{"Protect wraps", func() error { _, err := s.Protect(wrap, 100, PermRW); return err }, badRange},
		{"SetKey wraps", func() error { return s.SetKey(Region{Base: wrap, Size: 100}, 1) }, badRange},
		{"Load huge", func() error { _, err := s.Load(r.Base, 1<<62); return err }, unmappedAt(r.Base + PageSize)},
		{"Load max int", func() error { _, err := s.Load(r.Base, math.MaxInt); return err }, unmappedAt(r.Base + PageSize)},
		{"Load negative", func() error { _, err := s.Load(r.Base, -1); return err }, badRange},
		{"Load zero", func() error { _, err := s.Load(r.Base, 0); return err }, badRange},
		{"Protect huge", func() error { _, err := s.Protect(r.Base, 1<<62, PermRW); return err }, badRange},
		{"SetKey negative", func() error { return s.SetKey(Region{Base: r.Base, Size: -1}, 1) }, badRange},
	} {
		if err := c.op(); !c.ok(err) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// TestRegionAllocs pins what a region costs in Go allocations: its page
// records and, on its first access, one slab, whatever its length, plus the
// slice a Load returns. Free then Alloc of the same span hands both back and
// allocates nothing. A snapshot of the region allocates nothing and a whole
// copy of it into a fresh span only its page records, both sharing the
// slab; the first store into either side then allocates one slab. A copy
// into a freed span that kept its slab copies into it, so a loop that
// frees what it copies allocates nothing; Map borrows its buffer as the
// slab, so a loop that frees what it maps allocates nothing either.
func TestRegionAllocs(t *testing.T) {
	var counts []float64
	for _, pages := range []int{1, 8, 64} {
		s := NewSpace()
		data := bytes.Repeat([]byte{7}, pages*PageSize)
		var err error
		fresh := testing.AllocsPerRun(50, func() {
			r, aerr := s.Alloc(len(data))
			if aerr == nil {
				aerr = s.Store(r.Base, data)
			}
			if aerr == nil {
				_, aerr = s.Load(r.Base, len(data))
			}
			if aerr != nil {
				err = aerr
			}
		})
		r, _ := s.Alloc(len(data))
		reuse := testing.AllocsPerRun(50, func() {
			if ferr := s.Free(r); ferr != nil {
				err = ferr
			}
			r, _ = s.Alloc(len(data))
		})
		if err != nil {
			t.Fatal(err)
		}
		if fresh > 3 || reuse != 0 {
			t.Errorf("%d-page region: %.0f allocs for Alloc+Store+Load (want <= 3), %.0f for Free+Alloc (want 0)", pages, fresh, reuse)
		}
		counts = append(counts, fresh)

		other := NewSpace()
		other.maps = make([]mapping, 0, 1) // room in the index: a copy's records are all it makes
		keep := func(e error) {
			if err == nil {
				err = e
			}
		}
		var rc Region
		keep(s.Store(r.Base, data)) // the region's slab is made
		shared := []uint64{
			mallocs(func() { _, e := s.Snapshot(r); keep(e) }),
			mallocs(func() { keep(s.Store(r.Base, data[:1])) }),
			mallocs(func() { var e error; rc, e = Copy(other, s, r.Base, r.Size); keep(e) }),
			mallocs(func() { keep(other.Store(rc.Base, data[:1])) }),
			mallocs(func() { keep(s.Store(r.Base, data[:1])) }),
		}
		loop := testing.AllocsPerRun(50, func() {
			keep(other.Free(rc))
			var e error
			rc, e = Copy(other, s, r.Base, r.Size)
			keep(e)
			keep(other.Store(rc.Base, data[:1]))
		})
		mapLoop := testing.AllocsPerRun(50, func() {
			keep(s.Free(r))
			var e error
			r, e = s.Map(data)
			keep(e)
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []uint64{0, 1, 1, 1, 1}; !slices.Equal(shared, want) || loop != 0 || mapLoop != 0 {
			t.Errorf("%d-page region: %v allocs for Snapshot, Store, Copy, Store into the copy, Store into the source (want %v); %.0f for Free+Copy+Store, %.0f for Free+Map (want 0)", pages, shared, want, loop, mapLoop)
		}
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("allocs per region grow with its length: %v for 1, 8 and 64 pages", counts)
	}
	// Less than a page, a snapshot is a copy of the region, and the store
	// after it writes the slab in place instead of copying a whole page.
	s := NewSpace()
	r, err := s.Alloc(100)
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	small := []uint64{
		mallocs(func() { keep(s.Store(r.Base, []byte{1})) }),
		mallocs(func() { _, e := s.Snapshot(r); keep(e) }),
		mallocs(func() { keep(s.Store(r.Base, []byte{2})) }),
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 1, 0}; !slices.Equal(small, want) {
		t.Errorf("100-byte region: %v allocs for Store, Snapshot, Store (want %v)", small, want)
	}
}

// mallocs returns the heap allocations one call of f makes, counted as
// testing.AllocsPerRun counts them, for a call whose first run is the one
// to measure.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFreeRejectsUnallocated checks that Free takes only a region Alloc
// returned and that is still allocated.
func TestFreeRejectsUnallocated(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(2 * PageSize)
	for _, bad := range []Region{
		{Base: r.Base, Size: PageSize},             // wrong size
		{Base: r.Base + PageSize, Size: PageSize},  // inside the region
		{Base: r.End() + PageSize, Size: PageSize}, // never allocated
		{Base: r.Base, Size: 0},
	} {
		if err := s.Free(bad); !errors.Is(err, ErrBadRange) {
			t.Fatalf("Free(%v) = %v, want ErrBadRange", bad, err)
		}
	}
	if err := s.Free(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(r); !errors.Is(err, ErrBadRange) {
		t.Fatalf("second Free = %v, want ErrBadRange", err)
	}
}

// TestReusedPageIsFresh checks that a span Free kept comes back from Alloc
// as a fresh one would: zeroed, read-write, in the default key.
func TestReusedPageIsFresh(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	if err := s.Store(r.Base, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProtectRegion(r, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.SetKey(r, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(r); err != nil {
		t.Fatal(err)
	}
	again, _ := s.Alloc(PageSize)
	if again.Base != r.Base {
		t.Fatalf("reuse placed the page at %#x, want %#x", again.Base, r.Base)
	}
	if perm, _ := s.PermAt(again.Base); perm != PermRW {
		t.Fatalf("reused page perm %v, want %v", perm, PermRW)
	}
	if k, _ := s.KeyAt(again.Base); k != 0 {
		t.Fatalf("reused page key %d, want 0", k)
	}
	if b, err := s.LoadByte(again.Base); err != nil || b != 0 {
		t.Fatalf("reused page byte = %#x, %v; want 0", b, err)
	}
}

// TestSharedSlabConcurrentStores: a region and its whole copy in a second
// space share one slab, which a snapshot taken before the copy also holds.
// On each side a writer stores whole fills into its region while a reader
// takes snapshots of it: every snapshot holds one fill of its own side, a
// held snapshot keeps its bytes, and the first snapshot stays zero. It
// runs on a region a Store filled and on one Map made, whose slab is the
// buffer handed over, shorter than its span. Run with -race, it also
// checks that the shared slab is only ever read.
func TestSharedSlabConcurrentStores(t *testing.T) {
	for _, c := range []struct {
		name      string
		size      int
		newRegion func(s *AddressSpace, b []byte) (Region, error)
	}{
		{"stored", 3 * PageSize, func(s *AddressSpace, b []byte) (Region, error) {
			r, err := s.Alloc(len(b))
			if err == nil {
				err = s.Store(r.Base, b)
			}
			return r, err
		}},
		// Map borrows the buffer as a slab shorter than its span.
		{"mapped", 3*PageSize - 100, (*AddressSpace).Map},
	} {
		t.Run(c.name, func(t *testing.T) { sharedSlabConcurrentStores(t, c.size, c.newRegion) })
	}
}

// sharedSlabConcurrentStores runs TestSharedSlabConcurrentStores on a
// region of size bytes that newRegion makes of zeros.
func sharedSlabConcurrentStores(t *testing.T, size int, newRegion func(*AddressSpace, []byte) (Region, error)) {
	a, b := NewSpace(), NewSpace()
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, size) }
	ra, err := newRegion(a, fill(0))
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Snapshot(ra)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Copy(b, a, ra.Base, ra.Size)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, side := range []struct {
		s      *AddressSpace
		r      Region
		lo, hi byte // the fills its writer stores
	}{{a, ra, 1, 100}, {b, rb, 101, 200}} {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for v := side.lo; v <= side.hi; v++ {
				if err := side.s.Store(side.r.Base, fill(v)); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			var held [][]byte
			ours := func(b []byte) bool {
				return bytes.Equal(b, fill(b[0])) && (b[0] == 0 || b[0] >= side.lo && b[0] <= side.hi)
			}
			for i := 0; i < 200; i++ {
				snap, err := side.s.Snapshot(side.r)
				if err != nil {
					errs <- err
					return
				}
				if !ours(snap) {
					errs <- errors.New("a snapshot mixes two stores or holds the other side's")
					return
				}
				held = append(held, snap)
			}
			for _, h := range held {
				if !ours(h) {
					errs <- errors.New("a held snapshot changed")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !bytes.Equal(first, fill(0)) {
		t.Error("the snapshot taken before the copy changed")
	}
}

// TestSnapshotConcurrentWithStores: readers taking snapshots of a region
// while a writer stores whole fills into it each see one fill, never a
// mix, and a snapshot they hold keeps its bytes after later stores. Run
// with -race, it also checks that the shared slice is only ever read.
func TestSnapshotConcurrentWithStores(t *testing.T) {
	s := NewSpace()
	r, err := s.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, r.Size) }
	if err := s.Store(r.Base, fill(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte
			for i := 0; i < 200; i++ {
				snap, err := s.Snapshot(r)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(snap, fill(snap[0])) {
					errs <- errors.New("a snapshot mixes two stores")
					return
				}
				held = append(held, snap)
			}
			for _, h := range held {
				if !bytes.Equal(h, fill(h[0])) {
					errs <- errors.New("a held snapshot changed")
					return
				}
			}
		}()
	}
	for v := byte(1); v <= 100; v++ {
		if err := s.Store(r.Base, fill(v)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
