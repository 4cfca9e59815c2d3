package mem

// Test-only queries: no binary reads these.

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr Addr) bool { return addr >= r.Base && addr < r.End() }

// Overlaps reports whether the two regions share any address.
func (r Region) Overlaps(o Region) bool { return r.Base < o.End() && o.Base < r.End() }

// KeyAt returns the protection key of the page containing addr.
func (s *AddressSpace) KeyAt(addr Addr) (Key, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.lookup(addr)
	if m == nil {
		return 0, false
	}
	return m.pages[(addr-m.base)/PageSize].key, true
}

// RegionOf returns the allocated region containing addr, if any.
func (s *AddressSpace) RegionOf(addr Addr) (Region, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if m := s.lookup(addr); m != nil && m.region().Contains(addr) {
		return m.region(), true
	}
	return Region{}, false
}
