package mem

import "fmt"

// Protection keys implement the intra-process isolation the paper's §7
// points to as complementary (Hodor, ERIM, Donky: PKU-based memory
// domains). Pages carry a 4-bit key; the space carries a PKRU-style access
// mask deciding, per key, whether loads and stores are permitted *in
// addition to* the page permission bits. Key 0 is the default domain and
// is always fully accessible, as on x86 MPK.
//
// FreePart's agents can use keys to shield long-lived data (e.g. model
// weights) from the rest of the code in the same agent process: a payload
// running inside a compromised agent still faults when it touches a
// disabled domain.
type Key uint8

// MaxKey is the largest usable protection key (x86 MPK has 16 keys).
const MaxKey Key = 15

// keyAccess is one key's PKRU entry.
type keyAccess struct {
	denyRead  bool
	denyWrite bool
}

// SetKey tags every page of the region with the protection key.
func (s *AddressSpace) SetKey(r Region, k Key) error {
	if k > MaxKey {
		return fmt.Errorf("%w: protection key %d", ErrBadRange, k)
	}
	if r.Size <= 0 {
		return fmt.Errorf("%w: key region size %d", ErrBadRange, r.Size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gap, ok := s.eachPage(r.Base, r.Size, func(_ Addr, st *pageState) bool {
		st.key = k
		return true
	})
	if !ok {
		return fmt.Errorf("%w: key on unmapped page %#x", ErrBadRange, gap)
	}
	return nil
}

// SetKeyAccess writes the space's PKRU entry for the key: whether loads
// and stores of pages tagged with it are permitted. Key 0 cannot be
// restricted (the default domain must stay usable, as in hardware MPK
// where WRPKRU itself must remain reachable).
func (s *AddressSpace) SetKeyAccess(k Key, allowRead, allowWrite bool) error {
	if k == 0 {
		return fmt.Errorf("%w: key 0 access is fixed", ErrBadRange)
	}
	if k > MaxKey {
		return fmt.Errorf("%w: protection key %d", ErrBadRange, k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkru[k] = keyAccess{denyRead: !allowRead, denyWrite: !allowWrite}
	return nil
}

// keyAllows checks the PKRU mask for an access, under s.mu.
func (s *AddressSpace) keyAllows(k Key, kind AccessKind) bool {
	if k == 0 {
		return true
	}
	a := s.pkru[k]
	switch kind {
	case AccessRead:
		return !a.denyRead
	case AccessWrite:
		return !a.denyWrite
	default:
		return true
	}
}
