package mem

import (
	"fmt"
	"slices"
	"sort"
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

// pageState is one page's protection: its permission bits and its key.
type pageState struct {
	perm Perm
	key  Key // protection key (0 = default domain)
}

// span is a page-aligned run of the address space: one protection record
// per page and one byte slab for the whole run, made on its first access
// or borrowed by Map. Once made, a slab stays with its addresses unless a
// snapshot or a copy shares it: Free hands an allocation's span to the
// free list and Alloc takes it, or a prefix of it, back, so the slabs
// never cover more than the break. Only a full slab its mapping owns
// reaches the free list.
type span struct {
	base  Addr
	pages []pageState
	// data is nil until first accessed, then len(pages)*PageSize bytes. A
	// shared slab, which a Map borrows or a whole-region Copy shares from
	// one, may be shorter, but holds at least its region's bytes: the bytes
	// past its end read as zero.
	data []byte
}

// end returns the first address past the span.
func (sp *span) end() Addr { return sp.base + Addr(len(sp.pages))*PageSize }

// bytes returns the span's slab, making it on first use.
func (sp *span) bytes() []byte {
	if sp.data == nil {
		sp.data = make([]byte, len(sp.pages)*PageSize)
	}
	return sp.data
}

// from returns the span's slab from offset off on: empty where a short
// shared slab ends before off.
func (sp *span) from(off Addr) []byte {
	b := sp.bytes()
	return b[min(off, Addr(len(b))):]
}

// cut splits the span after its first n bytes, a multiple of PageSize.
func (sp span) cut(n Addr) (head, tail span) {
	np := int(n / PageSize)
	head = span{base: sp.base, pages: sp.pages[:np:np]}
	tail = span{base: sp.base + n, pages: sp.pages[np:]}
	if sp.data != nil {
		head.data, tail.data = sp.data[:n:n], sp.data[n:]
	}
	return head, tail
}

// mapping is one allocated region and the span behind it: the simulated
// VMA, with permissions and keys still per page inside it.
type mapping struct {
	span
	size int // the size Alloc was asked for
	// snap holds a region of less than a page as Snapshot copied it: nil
	// until the first Snapshot, and again once a Store writes into the
	// mapping.
	snap []byte
	// shared is set once a Snapshot or a Copy hands out the slab itself,
	// and on a slab Map borrows: the next store into the mapping writes
	// into a private copy of it, and Free drops the slab instead of keeping
	// it for reuse.
	shared bool
}

func (m *mapping) region() Region { return Region{Base: m.base, Size: m.size} }

// writable returns the slab a store into the mapping writes: its own, made
// private and full first if it is shared. The snapshot is dropped.
func (m *mapping) writable() []byte {
	m.snap = nil
	if m.shared {
		own := make([]byte, len(m.pages)*PageSize)
		copy(own, m.data)
		m.data, m.shared = own, false
	}
	return m.bytes()
}

// AccessHook observes every checked access before the permission tables are
// consulted and may veto it by returning a non-nil error — the seam used by
// the chaos engine to raise spurious faults on otherwise-legal accesses.
// The hook runs with the space lock held, and during a Copy with the other
// space's lock too, and must not re-enter either space.
type AccessHook func(addr Addr, n int, kind AccessKind) error

// Region describes a contiguous allocated range.
type Region struct {
	Base Addr
	Size int
}

// AddressSpace is a simulated per-process virtual address space with a
// page-granular permission table. The zero value is not usable; create
// spaces with NewSpace. AddressSpace is safe for concurrent use.
type AddressSpace struct {
	id SpaceID

	mu     sync.RWMutex
	maps   []mapping // allocated regions, sorted by address
	mapped uint64    // pages the mappings hold
	brk    Addr      // bump-allocation cursor
	limit  Addr      // allocation ceiling
	freed  []span    // spans returned by Free, reused first fit
	stats  Stats
	pkru   [MaxKey + 1]keyAccess
	hook   AccessHook
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
	st.PagesMapped = s.mapped
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc(size)
}

// alloc is Alloc under mu.
func (s *AddressSpace) alloc(size int) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("%w: alloc size %d", ErrBadRange, size)
	}
	n := Addr(roundUp(size))
	sp, ok := s.takeFreed(n)
	if !ok {
		if s.brk+n > s.limit || s.brk+n < s.brk {
			return Region{}, ErrOutOfMemory
		}
		sp = span{base: s.brk, pages: make([]pageState, n/PageSize)}
		s.brk += n
	}
	for i := range sp.pages {
		sp.pages[i] = pageState{perm: PermRW}
	}
	clear(sp.data)
	s.maps = slices.Insert(s.maps, s.seek(sp.base), mapping{span: sp, size: size})
	s.mapped += uint64(len(sp.pages))
	return Region{Base: sp.base, Size: size}, nil
}

// takeFreed carves n bytes from the front of the first freed span that
// holds them, under mu.
func (s *AddressSpace) takeFreed(n Addr) (span, bool) {
	for i := range s.freed {
		f := &s.freed[i]
		fn := f.end() - f.base
		if fn < n {
			continue
		}
		if fn == n {
			sp := *f
			s.freed = slices.Delete(s.freed, i, i+1)
			return sp, true
		}
		sp, rest := f.cut(n)
		*f = rest
		return sp, true
	}
	return span{}, false
}

// seek returns the index of the first mapping that ends past addr: the one
// holding addr, if any does, and otherwise where a mapping at addr belongs.
// Under mu.
func (s *AddressSpace) seek(addr Addr) int {
	return sort.Search(len(s.maps), func(i int) bool { return s.maps[i].end() > addr })
}

// lookup returns the mapping holding addr, or nil, under mu.
func (s *AddressSpace) lookup(addr Addr) *mapping {
	if i := s.seek(addr); i < len(s.maps) && s.maps[i].base <= addr {
		return &s.maps[i]
	}
	return nil
}

// Free unmaps an allocated region and keeps its span for reuse, slab
// included unless a snapshot or a copy shares it: Alloc zeroes the slab of
// a span it reuses, and a shared one is still read. Accessing a freed
// region faults. r must be a region Alloc returned and not yet freed.
func (s *AddressSpace) Free(r Region) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.seek(r.Base)
	if i == len(s.maps) || s.maps[i].region() != r {
		return fmt.Errorf("%w: free of unallocated region %#x+%d", ErrBadRange, r.Base, r.Size)
	}
	sp := s.maps[i].span
	if s.maps[i].shared {
		sp.data = nil
	}
	s.maps = slices.Delete(s.maps, i, i+1)
	s.mapped -= uint64(len(sp.pages))
	s.freed = append(s.freed, sp)
	return nil
}

// Regions returns the currently allocated regions in address order.
func (s *AddressSpace) Regions() []Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Region, len(s.maps))
	for i := range s.maps {
		out[i] = s.maps[i].region()
	}
	return out
}

// eachPage calls f on the record of every page that [addr, addr+n) overlaps,
// in address order, until f returns false. It stops at the first such page
// that no mapping holds and returns that page's address with ok false. A
// range that runs past the top of the address space ends at the top page,
// which Alloc never maps. n must be positive. Under mu.
func (s *AddressSpace) eachPage(addr Addr, n int, f func(page Addr, st *pageState) bool) (gap Addr, ok bool) {
	last := ^Addr(0)
	if end := addr + Addr(n) - 1; end >= addr {
		last = end
	}
	at := addr &^ (PageSize - 1)
	for i := s.seek(at); i < len(s.maps) && s.maps[i].base <= at; i++ {
		m := &s.maps[i]
		for ; at < m.end(); at += PageSize {
			if !f(at, &m.pages[(at-m.base)/PageSize]) || at >= last&^(PageSize-1) {
				return 0, true
			}
		}
	}
	return at, false
}

// Protect changes the permission of every page overlapping [addr, addr+size)
// — the simulated mprotect. It returns the number of pages touched.
func (s *AddressSpace) Protect(addr Addr, size int, perm Perm) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("%w: protect size %d", ErrBadRange, size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	gap, ok := s.eachPage(addr, size, func(_ Addr, st *pageState) bool {
		st.perm = perm
		n++
		return true
	})
	if !ok {
		return n, fmt.Errorf("%w: protect of unmapped page %#x", ErrBadRange, gap)
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
	m := s.lookup(addr)
	if m == nil {
		return PermNone, false
	}
	return m.pages[(addr-m.base)/PageSize].perm, true
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
	var denied *Fault
	gap, ok := s.eachPage(addr, n, func(page Addr, st *pageState) bool {
		if s.allows(*st, kind) {
			return true
		}
		denied = &Fault{Space: s.id, Addr: page, Kind: kind, Perm: st.perm, Mapped: true}
		return false
	})
	switch {
	case denied != nil:
		s.stats.Faults++
		return denied
	case !ok:
		s.stats.Faults++
		return &Fault{Space: s.id, Addr: gap, Kind: kind, Mapped: false}
	}
	return nil
}

// allows reports whether a page's permission and key admit the access,
// under mu.
func (s *AddressSpace) allows(st pageState, kind AccessKind) bool {
	allowed := false
	switch kind {
	case AccessRead:
		allowed = st.perm.CanRead()
	case AccessWrite:
		allowed = st.perm.CanWrite()
	}
	return allowed && s.keyAllows(st.key, kind)
}

// Load copies n bytes starting at addr into a new slice, checking read
// permission on every page traversed. The range is checked before the
// slice is made.
func (s *AddressSpace) Load(addr Addr, n int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(addr, n, AccessRead); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	s.load(addr, buf)
	return buf, nil
}

// LoadAt fills buf from memory starting at addr.
func (s *AddressSpace) LoadAt(addr Addr, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(addr, len(buf), AccessRead); err != nil {
		return err
	}
	s.load(addr, buf)
	return nil
}

// Snapshot returns region r's bytes as Load(r.Base, r.Size) would, and
// checks and counts the access exactly as Load does: the same access-hook
// call, the same fault and the same Stats. The slice is read-only, and
// every Snapshot of r returns that same slice until a Store writes into
// the region's mapping; the slice itself keeps its bytes. A region of a
// page or more hands out its slab itself, copy-on-write: the next store
// into the mapping writes into a private copy, and Free drops the slab
// rather than zero it for reuse. A smaller region is copied once and the
// copy kept, since the store that unshares a slab would copy a whole page.
// Protect and SetKey, which change no byte, keep the slice. A range that
// is not a whole allocated region is copied afresh, as by Load.
func (s *AddressSpace) Snapshot(r Region) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(r.Base, r.Size, AccessRead); err != nil {
		return nil, err
	}
	m := s.lookup(r.Base)
	if m.region() != r {
		buf := make([]byte, r.Size)
		s.load(r.Base, buf)
		return buf, nil
	}
	s.stats.Loads++
	s.stats.BytesLoaded += uint64(r.Size)
	if r.Size >= PageSize {
		m.shared = true
		return m.bytes()[:r.Size:r.Size], nil
	}
	if m.snap == nil {
		m.snap = make([]byte, r.Size)
		copy(m.snap, m.bytes())
	}
	return m.snap, nil
}

// load counts a checked load of len(buf) bytes at addr and copies them
// into buf, under mu.
func (s *AddressSpace) load(addr Addr, buf []byte) {
	s.stats.Loads++
	s.stats.BytesLoaded += uint64(len(buf))
	s.read(addr, buf)
}

// read copies the checked range at addr into buf, under mu. The bytes
// past the end of a short slab read as zero.
func (s *AddressSpace) read(addr Addr, buf []byte) {
	for i, off := s.seek(addr), 0; off < len(buf); i++ {
		m := &s.maps[i]
		part := buf[off:min(len(buf), int(m.end()-addr))]
		clear(part[copy(part, m.from(addr+Addr(off)-m.base)):])
		off += len(part)
	}
}

// Store writes buf to memory starting at addr, checking write permission.
// It drops the snapshot of every mapping it writes into.
func (s *AddressSpace) Store(addr Addr, buf []byte) error {
	off := 0
	return s.StoreInPlace(addr, len(buf), func(b []byte) { off += copy(b, buf[off:]) })
}

// StoreInPlace is Store for a caller that makes the bytes where they land
// (Store is StoreInPlace with a write that copies its buffer): it checks
// and counts a store of n bytes at addr, drops the snapshot of every
// mapping the range covers, then calls write on the range's bytes
// themselves, once per mapping the range covers, in address order, so a
// range inside one region is one call with all n bytes. write is not
// called when the check fails, and runs with the space locked: it must
// not touch the space, nor keep the slice.
func (s *AddressSpace) StoreInPlace(addr Addr, n int, write func(b []byte)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(addr, n, AccessWrite); err != nil {
		return err
	}
	s.fill(addr, n, write)
	return nil
}

// fill counts a checked store of n bytes at addr, drops the snapshot of
// every mapping the range covers and unshares its slab, and calls write on
// each mapping's part of the range, in address order, under mu.
func (s *AddressSpace) fill(addr Addr, n int, write func(b []byte)) {
	s.stats.Stores++
	s.stats.BytesStored += uint64(n)
	for i, off := s.seek(addr), 0; off < n; i++ {
		m := &s.maps[i]
		b := m.writable()[addr+Addr(off)-m.base:]
		b = b[:min(len(b), n-off)]
		write(b)
		off += len(b)
	}
}

// Map allocates len(b) bytes as Alloc does and stores b into them: it
// checks, calls the access hook and counts Stats exactly as Alloc and then
// Store(r.Base, b) would. The caller hands b over and must not write it
// afterwards: the new region takes b itself as its slab, copy-on-write, as
// a whole-region Copy shares its source's. The first store into the region
// writes into a private copy, and Free drops b rather than keep it for
// reuse. A refused store returns the fault and leaves the new region
// allocated, as a refused Store into it would.
func (s *AddressSpace) Map(b []byte) (Region, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := s.alloc(len(b))
	if err != nil {
		return Region{}, err
	}
	if err := s.check(r.Base, len(b), AccessWrite); err != nil {
		return Region{}, err
	}
	s.stats.Stores++
	s.stats.BytesStored += uint64(len(b))
	m := s.lookup(r.Base)
	m.data, m.shared = b, true
	return r, nil
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

// Copy allocates n bytes in dst and copies the n bytes at srcAddr in src
// into them, slab to slab, so the bytes move once and through no buffer:
// the copy of an object into another space, or into a new region of its
// own when dst is src. It checks, calls the access hooks and counts Stats
// exactly as Load from src and then Alloc and Store into dst would. The
// read is checked and counted before anything is allocated, so a refused
// read leaves dst as it was; a refused write returns the fault and leaves
// the new region allocated, as a refused Store into it would. The new
// region has no snapshot. A copy of a whole region of a page or more, into
// a span that has no slab yet, shares the source's slab copy-on-write
// instead, as Snapshot does, when the slab's bytes past the region are
// zero as a copy would leave them; a span reused with its own slab is
// copied into, so a space that frees what it copies allocates nothing.
// Copy locks the two spaces in SpaceID order, or once when they are the
// same, so copies in opposite directions cannot deadlock, and the hooks
// run with both locked.
func Copy(dst, src *AddressSpace, srcAddr Addr, n int) (Region, error) {
	first, second := src, dst
	if dst.id < src.id {
		first, second = dst, src
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	if second != first {
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	if err := src.check(srcAddr, n, AccessRead); err != nil {
		return Region{}, err
	}
	src.stats.Loads++
	src.stats.BytesLoaded += uint64(n)
	r, err := dst.alloc(n)
	if err != nil {
		return Region{}, err
	}
	if err := dst.check(r.Base, n, AccessWrite); err != nil {
		return Region{}, err
	}
	// Looked up after alloc, which moves the mappings when dst is src.
	sm, dm := src.lookup(srcAddr), dst.lookup(r.Base)
	if n >= PageSize && sm.region() == (Region{Base: srcAddr, Size: n}) && dm.data == nil && zero(sm.bytes()[n:]) {
		dst.stats.Stores++
		dst.stats.BytesStored += uint64(n)
		dm.data, dm.shared, sm.shared = sm.data, true, true
		return r, nil
	}
	off := 0
	dst.fill(r.Base, n, func(b []byte) {
		src.read(srcAddr+Addr(off), b)
		off += len(b)
	})
	return r, nil
}

// zero reports whether every byte of b is zero.
func zero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
