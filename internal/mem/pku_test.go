package mem

import (
	"testing"
	"testing/quick"
)

func TestKeyDefaultDomainUnrestricted(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	// Freshly allocated pages carry key 0, which cannot be restricted.
	if k, ok := s.KeyAt(r.Base); !ok || k != 0 {
		t.Fatalf("KeyAt = %d, %v", k, ok)
	}
	if err := s.SetKeyAccess(0, false, false); err == nil {
		t.Fatal("restricting key 0 must fail")
	}
	if err := s.Store(r.Base, []byte{1}); err != nil {
		t.Fatalf("default-domain store: %v", err)
	}
}

func TestKeyDeniesWrite(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	if err := s.Store(r.Base, []byte("weights")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetKey(r, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetKeyAccess(3, true, false); err != nil { // read-only domain
		t.Fatal(err)
	}
	// Page perm is still rw-, but the key denies the store.
	if perm, _ := s.PermAt(r.Base); !perm.CanWrite() {
		t.Fatal("page permission should still be rw-")
	}
	if err := s.Store(r.Base, []byte{0xFF}); err == nil {
		t.Fatal("key-protected store should fault")
	}
	got, err := s.Load(r.Base, 7)
	if err != nil || string(got) != "weights" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestKeyDeniesRead(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	_ = s.SetKey(r, 5)
	_ = s.SetKeyAccess(5, false, false)
	if _, err := s.Load(r.Base, 1); err == nil {
		t.Fatal("key with read denied should fault loads")
	}
	// Re-enabling the domain restores access (the WRPKRU gate).
	_ = s.SetKeyAccess(5, true, true)
	if _, err := s.Load(r.Base, 1); err != nil {
		t.Fatalf("re-enabled domain: %v", err)
	}
}

func TestKeyValidation(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	if err := s.SetKey(r, MaxKey+1); err == nil {
		t.Fatal("key > MaxKey should fail")
	}
	if err := s.SetKey(Region{Base: 1 << 24, Size: PageSize}, 1); err == nil {
		t.Fatal("key on unmapped page should fail")
	}
	if err := s.SetKey(Region{Base: r.Base, Size: 0}, 1); err == nil {
		t.Fatal("empty region should fail")
	}
	if err := s.SetKeyAccess(MaxKey+1, true, true); err == nil {
		t.Fatal("access for key > MaxKey should fail")
	}
	if _, ok := s.KeyAt(1 << 24); ok {
		t.Fatal("KeyAt of unmapped address should report !ok")
	}
}

func TestKeyPerPageGranularity(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize * 2)
	// Tag only the first page.
	_ = s.SetKey(Region{Base: r.Base, Size: PageSize}, 4)
	_ = s.SetKeyAccess(4, true, false)
	if err := s.Store(r.Base, []byte{1}); err == nil {
		t.Fatal("first page should be write-protected")
	}
	if err := s.Store(r.Base+PageSize, []byte{1}); err != nil {
		t.Fatalf("second page should be writable: %v", err)
	}
}

func TestKeyOrthogonalToPagePerms(t *testing.T) {
	// A read-only page in a fully-enabled domain still denies writes: keys
	// only ever subtract access.
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	_, _ = s.ProtectRegion(r, PermRead)
	_ = s.SetKey(r, 1)
	_ = s.SetKeyAccess(1, true, true)
	if err := s.Store(r.Base, []byte{1}); err == nil {
		t.Fatal("page permission must still apply")
	}
}

func TestKeyReassignOverlappingRegion(t *testing.T) {
	// Re-tagging an overlapping region moves its pages wholesale into the
	// new domain: the last SetKey wins per page, with no residue of the old
	// key (the pkey_mprotect semantics the domain boundary relies on when a
	// result object is tagged after its argument pages were).
	s := NewSpace()
	r, _ := s.Alloc(PageSize * 3)
	if err := s.SetKey(r, 2); err != nil {
		t.Fatal(err)
	}
	// Overlap: re-tag the middle page only.
	mid := Region{Base: r.Base + PageSize, Size: PageSize}
	if err := s.SetKey(mid, 7); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Key{2, 7, 2} {
		if k, ok := s.KeyAt(r.Base + Addr(i*PageSize)); !ok || k != want {
			t.Fatalf("page %d key = %d, %v; want %d", i, k, ok, want)
		}
	}
	// Revoking the old key leaves the re-tagged page untouched.
	_ = s.SetKeyAccess(2, false, false)
	if err := s.Store(mid.Base, []byte{1}); err != nil {
		t.Fatalf("re-tagged page must follow its new key: %v", err)
	}
	if err := s.Store(r.Base, []byte{1}); err == nil {
		t.Fatal("old-key page must fault once key 2 is revoked")
	}
}

func TestKeyFaultFieldsDeterministic(t *testing.T) {
	// A key-denied access surfaces as a *Fault with fully deterministic
	// fields: page-aligned address, the attempted access kind, the page's
	// (still permissive) permission, and Mapped=true. Replay logs compare
	// these bytes, so they must not vary run to run.
	s := NewSpace()
	r, _ := s.Alloc(PageSize * 2)
	_ = s.SetKey(r, 6)
	_ = s.SetKeyAccess(6, false, false)
	// Fault on the second page, at an unaligned offset.
	addr := r.Base + PageSize + 123
	_, err := s.Load(addr, 1)
	f, ok := IsFault(err)
	if !ok {
		t.Fatalf("want *Fault, got %v", err)
	}
	want := Fault{Space: f.Space, Addr: r.Base + PageSize, Kind: AccessRead, Perm: PermRW, Mapped: true}
	if *f != want {
		t.Fatalf("fault = %+v, want %+v", *f, want)
	}
	// Byte-equal across repetitions, and the write kind is reported as such.
	for i := 0; i < 3; i++ {
		_, err2 := s.Load(addr, 1)
		f2, _ := IsFault(err2)
		if f2 == nil || *f2 != *f || f2.Error() != f.Error() {
			t.Fatalf("fault not deterministic: %+v vs %+v", f2, f)
		}
	}
	serr := s.Store(addr, []byte{1})
	if sf, ok := IsFault(serr); !ok || sf.Kind != AccessWrite || sf.Addr != r.Base+PageSize {
		t.Fatalf("store fault = %+v", serr)
	}
}

func TestKeyRoundTripProperty(t *testing.T) {
	s := NewSpace()
	r, _ := s.Alloc(PageSize)
	f := func(kRaw uint8, allowRead, allowWrite bool) bool {
		k := Key(kRaw%15) + 1 // 1..15
		if err := s.SetKey(r, k); err != nil {
			return false
		}
		if err := s.SetKeyAccess(k, allowRead, allowWrite); err != nil {
			return false
		}
		_, lerr := s.Load(r.Base, 1)
		serr := s.Store(r.Base, []byte{1})
		// Restore for the next iteration.
		_ = s.SetKeyAccess(k, true, true)
		return (lerr == nil) == allowRead && (serr == nil) == allowWrite
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
