package mem

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Addr is a virtual address within an AddressSpace.
type Addr uint64

// PageIndex returns the page number containing the address.
func (a Addr) PageIndex() uint64 { return uint64(a) / PageSize }

// SpaceID identifies an address space (one per simulated process).
type SpaceID uint32

var nextSpaceID atomic.Uint32

// Stats are access counters for an address space.
type Stats struct {
	Loads       uint64 // Load/LoadAt calls
	Stores      uint64 // Store/StoreAt calls
	BytesLoaded uint64
	BytesStored uint64
	Faults      uint64 // permission/unmapped violations raised
	Protects    uint64 // Protect calls
	PagesMapped uint64 // pages currently mapped
}

type page struct {
	data []byte // lazily allocated, PageSize long
	perm Perm
	key  Key // protection key (0 = default domain)
}

// AccessHook observes every checked access before the permission tables are
// consulted and may veto it by returning a non-nil error — the seam used by
// the chaos engine to raise spurious faults on otherwise-legal accesses.
// The hook runs with the space lock held and must not re-enter the space.
type AccessHook func(addr Addr, n int, kind AccessKind) error

// Region describes a contiguous allocated range.
type Region struct {
	Base Addr
	Size int
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr Addr) bool { return addr >= r.Base && addr < r.End() }

// Overlaps reports whether the two regions share any address.
func (r Region) Overlaps(o Region) bool { return r.Base < o.End() && o.Base < r.End() }

// AddressSpace is a simulated per-process virtual address space with a
// page-granular permission table. The zero value is not usable; create
// spaces with NewSpace. AddressSpace is safe for concurrent use.
type AddressSpace struct {
	id SpaceID

	mu      sync.RWMutex
	pages   map[uint64]*page
	brk     Addr // bump-allocation cursor
	limit   Addr // allocation ceiling
	regions []Region
	freed   []Region // page-aligned spans returned by Free, reused first
	// spare holds the page records Free unmapped. Alloc maps them again,
	// zeroed, before it allocates new ones, so a space that frees as much
	// as it allocates stops allocating Go memory.
	spare []*page
	stats Stats
	pkru  [MaxKey + 1]keyAccess
	hook  AccessHook
}

// DefaultLimit is the default per-space allocation ceiling (1 GiB of
// simulated memory), generous enough for every evaluation workload.
const DefaultLimit = Addr(1 << 30)

// baseAddr is the first allocatable address: page zero is kept unmapped so
// that nil-style pointers fault, as on a real OS.
const baseAddr = Addr(PageSize)

// NewSpace creates an empty address space with the default limit.
func NewSpace() *AddressSpace {
	return &AddressSpace{
		id:    SpaceID(nextSpaceID.Add(1)),
		pages: make(map[uint64]*page),
		brk:   baseAddr,
		limit: DefaultLimit,
	}
}

// ID returns the space's identifier.
func (s *AddressSpace) ID() SpaceID { return s.id }

// SetLimit adjusts the allocation ceiling. Lowering it below the current
// break has no effect on existing allocations.
func (s *AddressSpace) SetLimit(limit Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = limit
}

// Stats returns a snapshot of the access counters.
func (s *AddressSpace) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.PagesMapped = uint64(len(s.pages))
	return st
}

// roundUp rounds n up to the next multiple of PageSize.
func roundUp(n int) int {
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// Alloc reserves size bytes of zeroed memory with PermRW and returns the
// region. Allocations are page-aligned so that Protect on a region never
// bleeds into a neighbouring allocation (matching how the paper protects
// whole buffers).
func (s *AddressSpace) Alloc(size int) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("%w: alloc size %d", ErrBadRange, size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	span := Addr(roundUp(size))
	base, ok := s.takeFreed(span)
	if !ok {
		if s.brk+span > s.limit || s.brk+span < s.brk {
			return Region{}, ErrOutOfMemory
		}
		base = s.brk
		s.brk += span
	}
	for pi := base.PageIndex(); pi < (base + span).PageIndex(); pi++ {
		s.pages[pi] = s.newPage()
	}
	r := Region{Base: base, Size: size}
	s.regions = append(s.regions, r)
	return r, nil
}

// newPage returns a zeroed read-write page record in the default key
// domain, reusing a spare one when there is any. Called with mu held.
func (s *AddressSpace) newPage() *page {
	n := len(s.spare)
	if n == 0 {
		return &page{perm: PermRW}
	}
	pg := s.spare[n-1]
	s.spare = s.spare[:n-1]
	clear(pg.data)
	pg.perm, pg.key = PermRW, 0
	return pg
}

// takeFreed carves a span from the free list (first fit), under mu.
func (s *AddressSpace) takeFreed(span Addr) (Addr, bool) {
	for i, f := range s.freed {
		fspan := Addr(roundUp(f.Size))
		if fspan < span {
			continue
		}
		base := f.Base
		if fspan == span {
			s.freed = append(s.freed[:i], s.freed[i+1:]...)
		} else {
			s.freed[i] = Region{Base: f.Base + span, Size: int(fspan - span)}
		}
		return base, true
	}
	return 0, false
}

// Free unmaps an allocated region's pages and keeps its span for reuse.
// Accessing a freed region faults. r must be a region Alloc returned and
// not yet freed.
func (s *AddressSpace) Free(r Region) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.Index(s.regions, r)
	if i < 0 {
		return fmt.Errorf("%w: free of unallocated region %#x+%d", ErrBadRange, r.Base, r.Size)
	}
	s.regions = append(s.regions[:i], s.regions[i+1:]...)
	span := Addr(roundUp(r.Size))
	for pi := r.Base.PageIndex(); pi < (r.Base + span).PageIndex(); pi++ {
		s.spare = append(s.spare, s.pages[pi])
		delete(s.pages, pi)
	}
	s.freed = append(s.freed, Region{Base: r.Base, Size: int(span)})
	return nil
}

// Regions returns the currently allocated regions in allocation order.
func (s *AddressSpace) Regions() []Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Region, len(s.regions))
	copy(out, s.regions)
	return out
}

// RegionOf returns the allocated region containing addr, if any.
func (s *AddressSpace) RegionOf(addr Addr) (Region, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// Protect changes the permission of every page overlapping [addr, addr+size)
// — the simulated mprotect. It returns the number of pages touched.
func (s *AddressSpace) Protect(addr Addr, size int, perm Perm) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("%w: protect size %d", ErrBadRange, size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first := addr.PageIndex()
	last := (addr + Addr(size) - 1).PageIndex()
	n := 0
	for pi := first; pi <= last; pi++ {
		pg, ok := s.pages[pi]
		if !ok {
			return n, fmt.Errorf("%w: protect of unmapped page %#x", ErrBadRange, pi*PageSize)
		}
		pg.perm = perm
		n++
	}
	s.stats.Protects++
	return n, nil
}

// ProtectRegion applies Protect across an entire region.
func (s *AddressSpace) ProtectRegion(r Region, perm Perm) (int, error) {
	return s.Protect(r.Base, r.Size, perm)
}

// PermAt returns the permission of the page containing addr.
func (s *AddressSpace) PermAt(addr Addr) (Perm, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pg, ok := s.pages[addr.PageIndex()]
	if !ok {
		return PermNone, false
	}
	return pg.perm, true
}

// SetAccessHook installs (or clears, with nil) the access hook.
func (s *AddressSpace) SetAccessHook(h AccessHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// check validates an access of n bytes at addr for the given kind, under mu.
func (s *AddressSpace) check(addr Addr, n int, kind AccessKind) error {
	if n <= 0 {
		return fmt.Errorf("%w: access size %d", ErrBadRange, n)
	}
	if s.hook != nil {
		if err := s.hook(addr, n, kind); err != nil {
			s.stats.Faults++
			return err
		}
	}
	first := addr.PageIndex()
	last := (addr + Addr(n) - 1).PageIndex()
	for pi := first; pi <= last; pi++ {
		pg, ok := s.pages[pi]
		if !ok {
			s.stats.Faults++
			return &Fault{Space: s.id, Addr: Addr(pi * PageSize), Kind: kind, Mapped: false}
		}
		allowed := false
		switch kind {
		case AccessRead:
			allowed = pg.perm.CanRead()
		case AccessWrite:
			allowed = pg.perm.CanWrite()
		case AccessExec:
			allowed = pg.perm.CanExec()
		}
		if allowed && !s.keyAllows(pg.key, kind) {
			allowed = false
		}
		if !allowed {
			s.stats.Faults++
			return &Fault{Space: s.id, Addr: Addr(pi * PageSize), Kind: kind, Perm: pg.perm, Mapped: true}
		}
	}
	return nil
}

// pageData returns the backing bytes for a page, allocating lazily.
func (pg *page) bytes() []byte {
	if pg.data == nil {
		pg.data = make([]byte, PageSize)
	}
	return pg.data
}

// Load copies n bytes starting at addr into a new slice, checking read
// permission on every page traversed.
func (s *AddressSpace) Load(addr Addr, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := s.LoadAt(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// LoadAt fills buf from memory starting at addr.
func (s *AddressSpace) LoadAt(addr Addr, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(addr, len(buf), AccessRead); err != nil {
		return err
	}
	s.stats.Loads++
	s.stats.BytesLoaded += uint64(len(buf))
	off := 0
	for off < len(buf) {
		a := addr + Addr(off)
		pg := s.pages[a.PageIndex()]
		po := int(uint64(a) % PageSize)
		n := copy(buf[off:], pg.bytes()[po:])
		off += n
	}
	return nil
}

// Store writes buf to memory starting at addr, checking write permission.
func (s *AddressSpace) Store(addr Addr, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(addr, len(buf), AccessWrite); err != nil {
		return err
	}
	s.stats.Stores++
	s.stats.BytesStored += uint64(len(buf))
	off := 0
	for off < len(buf) {
		a := addr + Addr(off)
		pg := s.pages[a.PageIndex()]
		po := int(uint64(a) % PageSize)
		n := copy(pg.bytes()[po:], buf[off:])
		off += n
	}
	return nil
}

// LoadByte loads a single byte.
func (s *AddressSpace) LoadByte(addr Addr) (byte, error) {
	var b [1]byte
	if err := s.LoadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// StoreByte stores a single byte.
func (s *AddressSpace) StoreByte(addr Addr, v byte) error {
	return s.Store(addr, []byte{v})
}

// Exec simulates an instruction fetch of n bytes at addr; it checks exec
// permission and returns the bytes (payload code in attack scenarios).
func (s *AddressSpace) Exec(addr Addr, n int) ([]byte, error) {
	s.mu.Lock()
	if err := s.check(addr, n, AccessExec); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Unlock()
	return s.Load(addr, n)
}

// Copy transfers n bytes from (src, srcAddr) to (dst, dstAddr), enforcing
// read permission on the source and write permission on the destination —
// the primitive under every simulated IPC transfer.
func Copy(dst *AddressSpace, dstAddr Addr, src *AddressSpace, srcAddr Addr, n int) error {
	buf, err := src.Load(srcAddr, n)
	if err != nil {
		return err
	}
	return dst.Store(dstAddr, buf)
}
