package mem

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// refSpace is the per-page reference model FuzzAddressSpace holds
// AddressSpace to: a map of page records with their own bytes, an
// allocation-order region list scanned linearly, and a first-fit free list
// of spans that are never merged. A range that runs past the top of the
// address space walks up to the top page, which is never mapped.
type refSpace struct {
	id      SpaceID
	pages   map[uint64]*refPage
	brk     Addr
	limit   Addr
	regions []Region
	freed   []Region
	stats   Stats
	pkru    [MaxKey + 1]keyAccess
	hook    AccessHook
}

type refPage struct {
	data []byte // nil until first accessed
	perm Perm
	key  Key
}

func (pg *refPage) bytes() []byte {
	if pg.data == nil {
		pg.data = make([]byte, PageSize)
	}
	return pg.data
}

func newRefSpace(id SpaceID, limit Addr) *refSpace {
	return &refSpace{id: id, pages: map[uint64]*refPage{}, brk: baseAddr, limit: limit}
}

// pageRange returns the first and last page [addr, addr+n) overlaps, the
// last being the top page when the range wraps.
func pageRange(addr Addr, n int) (first, last uint64) {
	end := addr + Addr(n) - 1
	if end < addr {
		end = ^Addr(0)
	}
	return addr.PageIndex(), end.PageIndex()
}

func (r *refSpace) Alloc(size int) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("%w: alloc size %d", ErrBadRange, size)
	}
	span := Addr(roundUp(size))
	base, found := Addr(0), false
	for i, f := range r.freed {
		if Addr(f.Size) < span {
			continue
		}
		base, found = f.Base, true
		if Addr(f.Size) == span {
			r.freed = append(r.freed[:i], r.freed[i+1:]...)
		} else {
			r.freed[i] = Region{Base: f.Base + span, Size: f.Size - int(span)}
		}
		break
	}
	if !found {
		if r.brk+span > r.limit || r.brk+span < r.brk {
			return Region{}, ErrOutOfMemory
		}
		base = r.brk
		r.brk += span
	}
	for pi := base.PageIndex(); pi < (base + span).PageIndex(); pi++ {
		r.pages[pi] = &refPage{perm: PermRW}
	}
	reg := Region{Base: base, Size: size}
	r.regions = append(r.regions, reg)
	return reg, nil
}

func (r *refSpace) Free(reg Region) error {
	i := slices.Index(r.regions, reg)
	if i < 0 {
		return fmt.Errorf("%w: free of unallocated region %#x+%d", ErrBadRange, reg.Base, reg.Size)
	}
	r.regions = append(r.regions[:i], r.regions[i+1:]...)
	span := Addr(roundUp(reg.Size))
	for pi := reg.Base.PageIndex(); pi < (reg.Base + span).PageIndex(); pi++ {
		delete(r.pages, pi)
	}
	r.freed = append(r.freed, Region{Base: reg.Base, Size: int(span)})
	return nil
}

// setPages applies set to every page of the range up to the first
// unmapped one, whose address it returns with ok false.
func (r *refSpace) setPages(addr Addr, n int, set func(*refPage)) (count int, gap uint64, ok bool) {
	first, last := pageRange(addr, n)
	for pi := first; ; pi++ {
		pg, mapped := r.pages[pi]
		if !mapped {
			return count, pi * PageSize, false
		}
		set(pg)
		count++
		if pi == last {
			return count, 0, true
		}
	}
}

func (r *refSpace) Protect(addr Addr, size int, perm Perm) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("%w: protect size %d", ErrBadRange, size)
	}
	n, gap, ok := r.setPages(addr, size, func(pg *refPage) { pg.perm = perm })
	if !ok {
		return n, fmt.Errorf("%w: protect of unmapped page %#x", ErrBadRange, gap)
	}
	r.stats.Protects++
	return n, nil
}

func (r *refSpace) SetKey(reg Region, k Key) error {
	if k > MaxKey {
		return fmt.Errorf("%w: protection key %d", ErrBadRange, k)
	}
	if reg.Size <= 0 {
		return fmt.Errorf("%w: key region size %d", ErrBadRange, reg.Size)
	}
	if _, gap, ok := r.setPages(reg.Base, reg.Size, func(pg *refPage) { pg.key = k }); !ok {
		return fmt.Errorf("%w: key on unmapped page %#x", ErrBadRange, gap)
	}
	return nil
}

func (r *refSpace) SetKeyAccess(k Key, allowRead, allowWrite bool) error {
	if k == 0 {
		return fmt.Errorf("%w: key 0 access is fixed", ErrBadRange)
	}
	if k > MaxKey {
		return fmt.Errorf("%w: protection key %d", ErrBadRange, k)
	}
	r.pkru[k] = keyAccess{denyRead: !allowRead, denyWrite: !allowWrite}
	return nil
}

func (r *refSpace) check(addr Addr, n int, kind AccessKind) error {
	if n <= 0 {
		return fmt.Errorf("%w: access size %d", ErrBadRange, n)
	}
	if r.hook != nil {
		if err := r.hook(addr, n, kind); err != nil {
			r.stats.Faults++
			return err
		}
	}
	first, last := pageRange(addr, n)
	for pi := first; ; pi++ {
		pg, ok := r.pages[pi]
		if !ok {
			r.stats.Faults++
			return &Fault{Space: r.id, Addr: Addr(pi * PageSize), Kind: kind}
		}
		allowed := false
		switch kind {
		case AccessRead:
			allowed = pg.perm.CanRead() && !(pg.key != 0 && r.pkru[pg.key].denyRead)
		case AccessWrite:
			allowed = pg.perm.CanWrite() && !(pg.key != 0 && r.pkru[pg.key].denyWrite)
		}
		if !allowed {
			r.stats.Faults++
			return &Fault{Space: r.id, Addr: Addr(pi * PageSize), Kind: kind, Perm: pg.perm, Mapped: true}
		}
		if pi == last {
			return nil
		}
	}
}

func (r *refSpace) Load(addr Addr, n int) ([]byte, error) {
	if err := r.check(addr, n, AccessRead); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	r.copyOut(addr, buf)
	return buf, nil
}

func (r *refSpace) LoadAt(addr Addr, buf []byte) error {
	if err := r.check(addr, len(buf), AccessRead); err != nil {
		return err
	}
	r.copyOut(addr, buf)
	return nil
}

func (r *refSpace) copyOut(addr Addr, buf []byte) {
	r.stats.Loads++
	r.stats.BytesLoaded += uint64(len(buf))
	for off := 0; off < len(buf); {
		a := addr + Addr(off)
		off += copy(buf[off:], r.pages[a.PageIndex()].bytes()[a%PageSize:])
	}
}

func (r *refSpace) Store(addr Addr, buf []byte) error {
	if err := r.check(addr, len(buf), AccessWrite); err != nil {
		return err
	}
	r.stats.Stores++
	r.stats.BytesStored += uint64(len(buf))
	for off := 0; off < len(buf); {
		a := addr + Addr(off)
		off += copy(r.pages[a.PageIndex()].bytes()[a%PageSize:], buf[off:])
	}
	return nil
}

func (r *refSpace) Stats() Stats {
	st := r.stats
	st.PagesMapped = uint64(len(r.pages))
	return st
}

// sameErr fails unless got and want are the same outcome: both nil, equal
// faults, or errors with the same text.
func sameErr(t *testing.T, op fmt.Stringer, got, want error) {
	gf, gok := IsFault(got)
	wf, wok := IsFault(want)
	switch {
	case (got == nil) != (want == nil), gok != wok:
		t.Fatalf("%s: error %v, reference %v", op, got, want)
	case gok && *gf != *wf:
		t.Fatalf("%s: fault %+v, reference %+v", op, *gf, *wf)
	case got != nil && got.Error() != want.Error():
		t.Fatalf("%s: error %q, reference %q", op, got, want)
	}
}

// scriptStep names a script step in a failure message.
type scriptStep struct {
	n  int
	op byte
}

func (s scriptStep) String() string { return fmt.Sprintf("step %d op %d", s.n, s.op) }

// script decodes a fuzz input; reads past its end yield zeros.
type script struct{ b []byte }

func (s *script) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *script) u16() uint16 { return uint16(s.byte())<<8 | uint16(s.byte()) }

// addr decodes an address operand: mode, a 16-bit value and a region index.
func (s *script) addr(live []Region) Addr {
	mode, v, idx := s.byte()%4, s.u16(), int(s.byte())
	switch {
	case mode == 3:
		return ^Addr(0) - Addr(v) // near the top, so a range can wrap
	case mode == 0 || len(live) == 0:
		return Addr(v) * 16
	case mode == 1:
		return live[idx%len(live)].Base + Addr(int16(v))
	default:
		return live[idx%len(live)].End() + Addr(int16(v))
	}
}

// size decodes a size operand: mode and a 16-bit value.
func (s *script) size() int {
	mode, v := s.byte()%4, s.u16()
	switch mode {
	case 0:
		return int(v)
	case 1:
		return int(int16(v))
	case 2:
		if v%2 == 1 {
			return math.MaxInt
		}
		return 1 << 62
	default:
		return int(v%16+1) * PageSize
	}
}

// Script ops, one byte each, followed by their operands.
const (
	fzAlloc        = iota // u16 size as int16
	fzFree                // region index, mode (0 as returned, 1 wrong size, 2 inner base)
	fzProtect             // addr, size, perm
	fzSetKey              // addr, size, key
	fzSetKeyAccess        // key, access bits
	fzLoad                // addr, size
	fzLoadAt              // addr, u16 length
	fzStore               // addr, u16 length, fill byte
	fzHook                // toggle a hook that vetoes some accesses
	fzSnapshot            // mode, region index; addr and size unless a live region is picked
	fzCopy                // mode (source and destination space, whole region); region index or addr and size
	fzStoreInPlace        // space, addr, u16 length, fill byte
	fzAllocIn             // space, u16 size as int16
	fzMap                 // space, u16 length, fill byte
	fzOps
)

// fuzzLimit keeps a scripted space small enough to compare page by page.
const fuzzLimit = Addr(64 * PageSize)

// fuzzSteps caps a script's ops. The bytes past the cap change nothing, so
// the fuzzer's minimizer, quadratic in the input's length, cuts them first
// and stays fast.
const fuzzSteps = 32

var errVeto = errors.New("mem: access vetoed by hook")

// vetoes is the fuzzed access hook: deterministic in its arguments, so both
// spaces see the same verdict for the same access.
func vetoes(addr Addr, n int, kind AccessKind) error {
	if (uint64(addr)+uint64(n)+uint64(kind))%7 == 0 {
		return errVeto
	}
	return nil
}

// FuzzAddressSpace runs byte-scripted sequences of allocations, frees,
// protection changes and accesses on an AddressSpace and on the per-page
// reference model, and requires the two to agree on every returned region,
// loaded byte, error, fault, hook call and counter, on every live region's
// bytes after every step, and at the end on every page's permission, key,
// region and contents. A Snapshot is held to the reference's Load, and to
// the sharing rule: the same slice for a whole region until a Store into
// its mapping or its Free, a slice an earlier snapshot returned only for
// the same contents, and no snapshot's bytes ever change. A second space,
// with a reference of its own, takes copies: Copy within a space and
// between the two, of any range or of a whole region, is held to the
// reference's Load, Alloc and Store, and StoreInPlace to its Store. Since
// a whole region of a page or more shares its slab with its snapshots and
// copies, the per-step check of every live region also holds the two
// sides of a copy apart once either is written. Map is held to the
// reference's Alloc and then Store of the same bytes, and the bytes handed
// to it are held, like a snapshot's, to what they were at every later step.
func FuzzAddressSpace(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runScript)
}

// fzSpace is one scripted space with its reference model, the regions
// allocated in it, each whole region's current snapshot, and each live
// region's contents version.
type fzSpace struct {
	s    *AddressSpace
	ref  *refSpace
	live []Region
	kept map[Region][]byte
	// ver names each live region's contents: a new version at every
	// allocation and every store into the region's mapping, the source's
	// at a copy of a whole region. Regions of one version hold the same
	// bytes, which a snapshot of either may share.
	ver map[Region]int
}

func newFzSpace() *fzSpace {
	s := NewSpace()
	s.SetLimit(fuzzLimit)
	return &fzSpace{s: s, ref: newRefSpace(s.ID(), fuzzLimit), kept: map[Region][]byte{}, ver: map[Region]int{}}
}

// versions hands out contents versions, each new one once.
type versions int

func (v *versions) next() int {
	*v++
	return int(*v)
}

// added records a region allocated with contents version v.
func (f *fzSpace) added(r Region, v int) {
	f.live = append(f.live, r)
	f.ver[r] = v
}

// stored gives every region a store into [addr, addr+n) wrote into the
// mapping of a new contents version, and drops its kept snapshot.
func (f *fzSpace) stored(addr Addr, n int, vs *versions) {
	written := Region{Base: addr, Size: n}
	for _, r := range f.live {
		if written.Overlaps(Region{Base: r.Base, Size: roundUp(r.Size)}) {
			delete(f.kept, r)
			f.ver[r] = vs.next()
		}
	}
}

// sameBytes requires every live region's span, its page tail included, to
// hold the reference's bytes.
func (f *fzSpace) sameBytes(t *testing.T, op fmt.Stringer) {
	for _, r := range f.live {
		for addr := r.Base; addr < r.Base+Addr(roundUp(r.Size)); addr += PageSize {
			if got, want := pageBytes(f.s, f.ref, addr); !bytes.Equal(got, want) {
				t.Fatalf("%s: page %#x of region %#x+%d: bytes differ from the reference", op, addr, r.Base, r.Size)
			}
		}
	}
}

// peek returns the n bytes at addr in the space, without a check or a
// count.
func (f *fzSpace) peek(addr Addr, n int) []byte {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	buf := make([]byte, n)
	f.s.read(addr, buf)
	return buf
}

// hookCall is one access-hook call, recorded to compare order.
type hookCall struct {
	space SpaceID
	addr  Addr
	n     int
	kind  AccessKind
}

// runScript runs one fuzz script on a fresh space and its reference.
func runScript(t *testing.T, in []byte) {
	a, b := newFzSpace(), newFzSpace()
	spaces := [2]*fzSpace{a, b}
	var hooked bool
	var hookLog, refHookLog []hookCall
	var snaps []snapshot // every snapshot taken and buffer mapped, to check none changes
	var vs versions
	sc := &script{b: in}
	for step := 0; step < fuzzSteps && len(sc.b) > 0; step++ {
		op := sc.byte() % fzOps
		name := scriptStep{step, op}
		s, ref := a.s, a.ref
		switch op {
		case fzAlloc, fzAllocIn:
			f := a
			if op == fzAllocIn {
				f = spaces[sc.byte()%2]
			}
			size := int(int16(sc.u16()))
			got, err := f.s.Alloc(size)
			want, rerr := f.ref.Alloc(size)
			sameErr(t, name, err, rerr)
			if got != want {
				t.Fatalf("%s: Alloc(%d) = %+v, reference %+v", name, size, got, want)
			}
			if err == nil {
				f.added(got, vs.next())
			}
		case fzFree:
			idx, mode := int(sc.byte()), sc.byte()
			f := spaces[mode/3%2]
			if len(f.live) == 0 {
				continue
			}
			idx %= len(f.live)
			r := f.live[idx]
			switch mode % 3 {
			case 1:
				r.Size++
			case 2:
				r.Base += PageSize
			}
			err := f.s.Free(r)
			sameErr(t, name, err, f.ref.Free(r))
			if err == nil {
				// A wrong base can name another live region, which is
				// then the one freed.
				f.live = slices.DeleteFunc(f.live, func(l Region) bool { return l == r })
				delete(f.kept, r)
				delete(f.ver, r)
			}
		case fzProtect:
			addr, size, perm := sc.addr(a.live), sc.size(), Perm(sc.byte())&(PermRead|PermWrite|PermExec)
			n, err := s.Protect(addr, size, perm)
			rn, rerr := ref.Protect(addr, size, perm)
			sameErr(t, name, err, rerr)
			if n != rn {
				t.Fatalf("%s: Protect(%#x, %d) touched %d pages, reference %d", name, addr, size, n, rn)
			}
		case fzSetKey:
			r := Region{Base: sc.addr(a.live), Size: sc.size()}
			k := Key(sc.byte()) % (MaxKey + 2)
			sameErr(t, name, s.SetKey(r, k), ref.SetKey(r, k))
		case fzSetKeyAccess:
			k, bits := Key(sc.byte())%(MaxKey+2), sc.byte()
			sameErr(t, name, s.SetKeyAccess(k, bits&1 != 0, bits&2 != 0), ref.SetKeyAccess(k, bits&1 != 0, bits&2 != 0))
		case fzLoad:
			addr, n := sc.addr(a.live), sc.size()
			got, err := s.Load(addr, n)
			want, rerr := ref.Load(addr, n)
			sameErr(t, name, err, rerr)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: Load(%#x, %d) bytes differ from the reference", name, addr, n)
			}
		case fzLoadAt:
			addr, n := sc.addr(a.live), int(sc.u16())%(3*PageSize)
			// LoadAt overwrites every byte of a buffer that holds others.
			got, want := bytes.Repeat([]byte{0xA5}, n), bytes.Repeat([]byte{0xA5}, n)
			sameErr(t, name, s.LoadAt(addr, got), ref.LoadAt(addr, want))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: LoadAt(%#x, %d) bytes differ from the reference", name, addr, n)
			}
		case fzStore:
			addr, n, fill := sc.addr(a.live), int(sc.u16())%(3*PageSize), sc.byte()
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = fill + byte(i)
			}
			err := s.Store(addr, buf)
			sameErr(t, name, err, ref.Store(addr, buf))
			if err == nil {
				a.stored(addr, n, &vs)
			}
		case fzStoreInPlace:
			f := spaces[sc.byte()%2]
			addr, n, fill := sc.addr(f.live), int(sc.u16())%(3*PageSize), sc.byte()
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = fill + byte(i)
			}
			var parts []int
			off := 0
			err := f.s.StoreInPlace(addr, n, func(p []byte) {
				parts = append(parts, len(p))
				off += copy(p, buf[off:])
			})
			sameErr(t, name, err, f.ref.Store(addr, buf))
			if err != nil {
				if len(parts) > 0 {
					t.Fatalf("%s: StoreInPlace(%#x, %d) wrote after a refused check", name, addr, n)
				}
				break
			}
			// The parts are the range in address order, split only where
			// one mapping ends and the next begins.
			end := addr
			for i, p := range parts {
				if end += Addr(p); p == 0 || i < len(parts)-1 && end%PageSize != 0 {
					t.Fatalf("%s: StoreInPlace(%#x, %d) part %d of %d bytes ends inside a page", name, addr, n, i, p)
				}
			}
			if off != n || !bytes.Equal(f.peek(addr, n), buf) {
				t.Fatalf("%s: StoreInPlace(%#x, %d) handed out %d bytes or wrote other bytes than the reference Store", name, addr, n, off)
			}
			f.stored(addr, n, &vs)
		case fzCopy:
			mode := sc.byte()
			src, dst := spaces[mode%2], spaces[mode/2%2]
			var addr Addr
			var n int
			if mode&4 != 0 {
				// A whole region: one of a page or more shares its slab.
				if idx := int(sc.byte()); len(src.live) > 0 {
					r := src.live[idx%len(src.live)]
					addr, n = r.Base, r.Size
				}
			} else {
				addr, n = sc.addr(src.live), sc.size()
			}
			// A copy of a whole region has its contents, a partial one and
			// a refused write new ones.
			v, whole := src.ver[Region{Base: addr, Size: n}]
			regions := dst.s.Regions()
			got, err := Copy(dst.s, src.s, addr, n)
			want, rerr := src.ref.Load(addr, n)
			var wr Region
			if rerr == nil {
				if wr, rerr = dst.ref.Alloc(n); rerr == nil {
					if rerr = dst.ref.Store(wr.Base, want); rerr != nil || !whole {
						v = vs.next()
					}
					dst.added(wr, v)
				}
			}
			sameErr(t, name, err, rerr)
			switch {
			case err == nil && (got != wr || !bytes.Equal(dst.peek(got.Base, got.Size), want)):
				t.Fatalf("%s: Copy(%#x, %d) = %+v, reference %+v, or its bytes differ from the reference Load", name, addr, n, got, wr)
			case err != nil && got != (Region{}):
				t.Fatalf("%s: Copy(%#x, %d) failed and returned %+v", name, addr, n, got)
			case wr == (Region{}) && !slices.Equal(dst.s.Regions(), regions):
				t.Fatalf("%s: Copy(%#x, %d) allocated after its read failed", name, addr, n)
			}
		case fzMap:
			f := spaces[sc.byte()%2]
			n, fill := int(sc.u16())%(3*PageSize), sc.byte()
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = fill + byte(i)
			}
			got, err := f.s.Map(buf)
			v := vs.next()
			want, rerr := f.ref.Alloc(n)
			if rerr == nil {
				// A refused store leaves the region allocated.
				f.added(want, v)
				rerr = f.ref.Store(want.Base, buf)
			}
			sameErr(t, name, err, rerr)
			if err != nil {
				want = Region{}
			}
			if got != want {
				t.Fatalf("%s: Map(%d bytes) = %+v, reference %+v", name, n, got, want)
			}
			// The region may keep buf as its slab, which its snapshots and
			// whole copies then share.
			if n > 0 {
				snaps = append(snaps, snapshot{got: buf, want: bytes.Clone(buf), ver: v})
			}
		case fzHook:
			hooked = !hooked
			for _, f := range spaces {
				if !hooked {
					f.s.SetAccessHook(nil)
					f.ref.hook = nil
					continue
				}
				id := f.s.ID()
				f.s.SetAccessHook(func(addr Addr, n int, kind AccessKind) error {
					hookLog = append(hookLog, hookCall{id, addr, n, kind})
					return vetoes(addr, n, kind)
				})
				f.ref.hook = func(addr Addr, n int, kind AccessKind) error {
					refHookLog = append(refHookLog, hookCall{id, addr, n, kind})
					return vetoes(addr, n, kind)
				}
			}
		case fzSnapshot:
			mode, idx := sc.byte(), int(sc.byte())
			f := spaces[mode/2%2]
			var r Region
			if mode%2 == 0 && len(f.live) > 0 {
				r = f.live[idx%len(f.live)]
			} else {
				r = Region{Base: sc.addr(f.live), Size: sc.size()}
			}
			got, err := f.s.Snapshot(r)
			want, rerr := f.ref.Load(r.Base, r.Size)
			sameErr(t, name, err, rerr)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: Snapshot(%#x+%d) bytes differ from the reference Load", name, r.Base, r.Size)
			}
			if err != nil {
				break
			}
			// A range that is not a whole live region is a fresh copy, of
			// contents no other snapshot has.
			v, whole := f.ver[r]
			if !whole {
				v = vs.next()
			}
			prev, shared := f.kept[r]
			switch {
			case shared && &got[0] != &prev[0]:
				t.Fatalf("%s: Snapshot(%#x+%d) copied an unchanged region again", name, r.Base, r.Size)
			case slices.ContainsFunc(snaps, func(o snapshot) bool { return &o.got[0] == &got[0] && o.ver != v }):
				t.Fatalf("%s: Snapshot(%#x+%d) returned a slice a snapshot of other contents returned", name, r.Base, r.Size)
			}
			if whole {
				f.kept[r] = got
			}
			snaps = append(snaps, snapshot{got: got, want: bytes.Clone(got), ver: v})
		}
		for _, o := range snaps {
			if !bytes.Equal(o.got, o.want) {
				t.Fatalf("%s: a snapshot's bytes, or a mapped buffer's, changed after it was taken", name)
			}
		}
		for i, f := range spaces {
			if got, want := f.s.Stats(), f.ref.Stats(); got != want {
				t.Fatalf("%s: space %d stats %+v, reference %+v", name, i, got, want)
			}
			f.sameBytes(t, name)
		}
		if !slices.Equal(hookLog, refHookLog) {
			t.Fatalf("%s: hook calls %v, reference %v", name, hookLog, refHookLog)
		}
		hookLog, refHookLog = hookLog[:0], refHookLog[:0]
	}
	for _, f := range spaces {
		comparePages(t, f.s, f.ref)
	}
}

// snapshot is a slice Snapshot returned or a buffer handed to Map, a copy
// of its bytes then and the contents version it was taken or made of.
type snapshot struct {
	got, want []byte
	ver       int
}

var zeroPage [PageSize]byte

// comparePages requires every page up to the limit, and the top page, to
// have the reference's permission, key, region and bytes.
func comparePages(t *testing.T, s *AddressSpace, ref *refSpace) {
	t.Helper()
	regs := slices.Clone(ref.regions)
	slices.SortFunc(regs, func(a, b Region) int { return cmp.Compare(a.Base, b.Base) })
	if got := s.Regions(); !slices.Equal(got, regs) {
		t.Fatalf("regions %v, reference %v", got, regs)
	}
	pages := []uint64{(^Addr(0)).PageIndex()}
	for pi := uint64(0); pi <= fuzzLimit.PageIndex()+1; pi++ {
		pages = append(pages, pi)
	}
	for _, pi := range pages {
		addr := Addr(pi * PageSize)
		pg, mapped := ref.pages[pi]
		perm, pok := s.PermAt(addr)
		key, kok := s.KeyAt(addr)
		if pok != mapped || kok != mapped || mapped && (perm != pg.perm || key != pg.key) {
			t.Fatalf("page %#x: perm %v/%v key %d/%v, reference mapped %v", addr, perm, pok, key, kok, mapped)
		}
		for _, a := range []Addr{addr, addr + PageSize - 1} {
			got, gok := s.RegionOf(a)
			var want Region
			wok := false
			for _, r := range ref.regions {
				if r.Contains(a) {
					want, wok = r, true
				}
			}
			if got != want || gok != wok {
				t.Fatalf("RegionOf(%#x) = %v, %v; reference %v, %v", a, got, gok, want, wok)
			}
		}
		if !mapped {
			continue
		}
		if got, want := pageBytes(s, ref, addr); !bytes.Equal(got, want) {
			t.Fatalf("page %#x: bytes differ from the reference", addr)
		}
	}
}

// pageBytes returns the bytes of the mapped page at addr in the space and
// in the reference, without a check or a count. Past the end of a short
// slab the page reads as zero.
func pageBytes(s *AddressSpace, ref *refSpace, addr Addr) (got, want []byte) {
	got, want = zeroPage[:], zeroPage[:]
	if m := s.lookup(addr); m.data != nil {
		got = make([]byte, PageSize)
		copy(got, m.from(addr-m.base))
	}
	if pg := ref.pages[addr.PageIndex()]; pg.data != nil {
		want = pg.data
	}
	return got, want
}

// Seed script assembly: operands in the layout the fuzz body decodes.
func fzAbs(v uint16) []byte             { return []byte{0, byte(v >> 8), byte(v), 0} }
func fzBase(idx byte, off int16) []byte { return []byte{1, byte(uint16(off) >> 8), byte(off), idx} }
func fzEnd(idx byte, off int16) []byte  { return []byte{2, byte(uint16(off) >> 8), byte(off), idx} }
func fzTop(back uint16) []byte          { return []byte{3, byte(back >> 8), byte(back), 0} }
func fzSize(n uint16) []byte            { return []byte{0, byte(n >> 8), byte(n)} }
func fzNeg(n int16) []byte              { return []byte{1, byte(uint16(n) >> 8), byte(n)} }
func fzHuge() []byte                    { return []byte{2, 0, 0} }
func fzPages(n uint16) []byte           { return []byte{3, 0, byte(n - 1)} }

func fzOp(op byte, operands ...[]byte) []byte {
	return slices.Concat(append([][]byte{{op}}, operands...)...)
}

func fzAllocOp(size int16) []byte { return fzOp(fzAlloc, []byte{byte(uint16(size) >> 8), byte(size)}) }
func fzLen(n uint16) []byte       { return []byte{byte(n >> 8), byte(n)} }

// fuzzSeeds are the scripted corner cases: an access across two adjacent
// regions, partial reuse of a larger freed span, Protect and SetKey across
// a region boundary and across an unmapped gap, snapshots, copies and
// stores in place, ranges that wrap the address space or have a bad
// length, slabs that snapshots and copies share, and buffers Map borrows.
func fuzzSeeds() [][]byte {
	return [][]byte{
		// Two adjacent regions; a store and loads across their boundary.
		slices.Concat(
			fzAllocOp(5000), fzAllocOp(100),
			fzOp(fzStore, fzBase(1, -10), fzLen(20), []byte{0x41}),
			fzOp(fzLoad, fzBase(1, -10), fzSize(20)),
			fzOp(fzLoadAt, fzBase(0, 0), fzLen(3*PageSize-1)),
		),
		// A four-page span, written, freed and reused in part: the prefix
		// comes back zeroed and the rest stays free for the next fit.
		slices.Concat(
			fzAllocOp(4*PageSize),
			fzOp(fzStore, fzBase(0, 0), fzLen(2*PageSize+7), []byte{0x7f}),
			fzOp(fzProtect, fzBase(0, PageSize), fzPages(1), []byte{byte(PermRead)}),
			fzOp(fzFree, []byte{0, 0}),
			fzAllocOp(PageSize),
			fzOp(fzLoad, fzBase(0, 0), fzSize(PageSize)),
			fzAllocOp(2*PageSize-1),
			fzOp(fzLoad, fzBase(1, 0), fzSize(2*PageSize)),
			fzOp(fzStore, fzBase(1, 5), fzLen(10), []byte{1}),
			fzAllocOp(3*PageSize),
		),
		// Protect and SetKey across a region boundary, then accesses that
		// hit the read-only page and the denied key.
		slices.Concat(
			fzAllocOp(PageSize), fzAllocOp(2*PageSize),
			fzOp(fzProtect, fzBase(0, 100), fzSize(PageSize), []byte{byte(PermRead)}),
			fzOp(fzSetKey, fzBase(1, -1), fzSize(2), []byte{5}),
			fzOp(fzSetKeyAccess, []byte{5, 1}),
			fzOp(fzStore, fzBase(1, -8), fzLen(16), []byte{9}),
			fzOp(fzLoad, fzBase(1, -8), fzSize(16)),
			fzOp(fzSetKeyAccess, []byte{5, 0}),
			fzOp(fzLoad, fzBase(1, 8), fzSize(16)),
		),
		// Protect and SetKey across an unmapped gap: the pages before the
		// gap change, the call fails at the gap.
		slices.Concat(
			fzAllocOp(PageSize), fzAllocOp(PageSize), fzAllocOp(PageSize),
			fzOp(fzFree, []byte{1, 0}),
			fzOp(fzProtect, fzBase(0, 0), fzPages(3), []byte{0}),
			fzOp(fzSetKey, fzBase(0, 0), fzPages(3), []byte{7}),
			fzOp(fzLoad, fzBase(0, 0), fzSize(1)),
			fzOp(fzLoad, fzBase(1, 0), fzSize(PageSize+1)),
		),
		// Snapshots: shared while the region is unchanged, kept across a
		// Protect and a faulting Store, fresh after a Store into the
		// mapping (here past the region's size, in its page) and after the
		// region is freed and its span reused; a range that is not a whole
		// region, and one the hook or a permission denies.
		slices.Concat(
			fzAllocOp(100), fzAllocOp(PageSize),
			fzOp(fzStore, fzBase(0, 0), fzLen(100), []byte{3}),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzProtect, fzBase(0, 0), fzSize(1), []byte{byte(PermRead)}),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzStore, fzBase(0, 0), fzLen(1), []byte{9}),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzProtect, fzBase(0, 0), fzSize(1), []byte{byte(PermRW)}),
			fzOp(fzStore, fzBase(0, 200), fzLen(1), []byte{9}),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzSnapshot, []byte{1, 0}, fzBase(0, 10), fzSize(20)),
			fzOp(fzSnapshot, []byte{1, 0}, fzBase(0, 0), fzSize(100)),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzFree, []byte{0, 0}),
			fzAllocOp(100),
			fzOp(fzSnapshot, []byte{0, 1}),
			fzOp(fzProtect, fzBase(1, 0), fzSize(1), []byte{byte(PermWrite)}),
			fzOp(fzSnapshot, []byte{0, 1}),
			fzOp(fzSnapshot, []byte{1, 0}, fzBase(0, PageSize), fzSize(PageSize+1)),
			fzOp(fzHook),
			fzOp(fzSnapshot, []byte{0, 0}),
		),
		// Ranges that wrap the address space or have a bad length.
		slices.Concat(
			fzAllocOp(PageSize),
			fzOp(fzLoad, fzTop(10), fzSize(100)),
			fzOp(fzLoadAt, fzTop(10), fzLen(100)),
			fzOp(fzStore, fzTop(10), fzLen(100), []byte{2}),
			fzOp(fzProtect, fzTop(10), fzSize(100), []byte{byte(PermRW)}),
			fzOp(fzSetKey, fzTop(10), fzSize(100), []byte{3}),
			fzOp(fzLoad, fzBase(0, 0), fzHuge()),
			fzOp(fzLoad, fzBase(0, 0), fzNeg(-1)),
			fzOp(fzProtect, fzBase(0, 0), fzHuge(), []byte{0}),
			fzOp(fzSetKey, fzBase(0, 0), fzNeg(-5), []byte{1}),
			fzAllocOp(-3),
			fzOp(fzHook),
			fzOp(fzLoad, fzAbs(256), fzSize(64)),
			fzOp(fzStore, fzBase(0, 3), fzLen(64), []byte{4}),
		),
		// Copies into the second space, back, and within each, one across
		// two adjacent source regions; a snapshot of a copy, shared until a
		// store in place drops it; stores in place across a region boundary
		// and onto a read-only page; a copy into a freed and reused span.
		slices.Concat(
			fzAllocOp(5000), fzAllocOp(100),
			fzOp(fzStore, fzBase(0, 0), fzLen(2*PageSize+50), []byte{0x11}),
			fzOp(fzCopy, []byte{2}, fzBase(0, 0), fzSize(5000)),
			fzOp(fzSnapshot, []byte{2, 0}),
			fzOp(fzSnapshot, []byte{2, 0}),
			fzOp(fzStoreInPlace, []byte{1}, fzBase(0, 10), fzLen(20), []byte{0x22}),
			fzOp(fzSnapshot, []byte{2, 0}),
			fzOp(fzCopy, []byte{1}, fzBase(0, 0), fzSize(5000)),
			fzOp(fzCopy, []byte{0}, fzBase(0, 8000), fzSize(300)),
			fzOp(fzCopy, []byte{3}, fzBase(0, 0), fzSize(100)),
			fzOp(fzStoreInPlace, []byte{0}, fzBase(1, -10), fzLen(20), []byte{0x33}),
			fzOp(fzProtect, fzBase(1, 0), fzSize(1), []byte{byte(PermRead)}),
			fzOp(fzStoreInPlace, []byte{0}, fzBase(1, -10), fzLen(20), []byte{0x44}),
			fzOp(fzFree, []byte{0, 3}),
			fzOp(fzCopy, []byte{2}, fzBase(1, 0), fzSize(100)),
			fzOp(fzSnapshot, []byte{2, 1}),
		),
		// Copies that fail: the destination's hook refuses the write (the
		// region stays allocated), the source's hook or permission refuses
		// the read (nothing is allocated), a bad length, a range that wraps,
		// and a destination out of memory after three 16-page copies.
		slices.Concat(
			fzAllocOp(100),
			fzOp(fzStore, fzBase(0, 0), fzLen(100), []byte{5}),
			fzOp(fzHook),
			fzOp(fzCopy, []byte{2}, fzBase(0, 0), fzSize(5)),
			fzOp(fzCopy, []byte{2}, fzBase(0, 0), fzSize(6)),
			fzOp(fzHook),
			fzOp(fzProtect, fzBase(0, 0), fzSize(1), []byte{byte(PermNone)}),
			fzOp(fzCopy, []byte{2}, fzBase(0, 0), fzSize(10)),
			fzOp(fzProtect, fzBase(0, 0), fzSize(1), []byte{byte(PermRW)}),
			fzOp(fzCopy, []byte{2}, fzBase(0, 0), fzNeg(-1)),
			fzOp(fzCopy, []byte{2}, fzTop(10), fzSize(100)),
			fzAllocOp(8*PageSize-1), fzAllocOp(8*PageSize-1), fzAllocOp(8*PageSize-1), fzAllocOp(8*PageSize-1),
			fzOp(fzCopy, []byte{2}, fzBase(1, 0), fzPages(16)),
			fzOp(fzCopy, []byte{2}, fzBase(1, 0), fzPages(16)),
			fzOp(fzCopy, []byte{2}, fzBase(1, 0), fzPages(16)),
			fzOp(fzCopy, []byte{2}, fzBase(1, 0), fzPages(16)),
		),
		// Shared slabs. A whole-region copy within the first space, which
		// grows its index, then a store into the source; a snapshot, a copy
		// into the second space and a snapshot of that copy share one slab
		// until stores into each side; a store into a region's page tail,
		// after which a whole copy of it is not shared; whole copies of a
		// one-page region (shared) and of a 100-byte one (copied); a shared
		// region freed and its span allocated again, in each space; a
		// private one freed and a whole copy into its span, which copies.
		slices.Concat(
			fzAllocOp(2*PageSize-100), fzAllocOp(PageSize), fzAllocOp(100), fzAllocOp(200),
			fzOp(fzStore, fzBase(0, 0), fzLen(2*PageSize-100), []byte{0x10}),
			fzOp(fzCopy, []byte{4, 0}),
			fzOp(fzStore, fzBase(0, 8), fzLen(16), []byte{0x20}),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzCopy, []byte{6, 0}),
			fzOp(fzSnapshot, []byte{2, 0}),
			fzOp(fzStore, fzBase(0, 100), fzLen(16), []byte{0x30}),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzStoreInPlace, []byte{1}, fzBase(0, PageSize+5), fzLen(10), []byte{0x40}),
			fzOp(fzStoreInPlace, []byte{0}, fzEnd(4, 10), fzLen(4), []byte{0x50}),
			fzOp(fzCopy, []byte{6, 4}),
			fzOp(fzCopy, []byte{6, 1}),
			fzOp(fzCopy, []byte{6, 2}),
			fzOp(fzSnapshot, []byte{2, 2}),
			fzOp(fzFree, []byte{0, 0}),
			fzAllocOp(2*PageSize-100),
			fzOp(fzFree, []byte{0, 3}),
			fzOp(fzCopy, []byte{6, 4}),
			fzOp(fzFree, []byte{1, 3}),
			fzOp(fzAllocIn, []byte{1}, fzLen(PageSize)),
			fzOp(fzStore, fzBase(0, 0), fzLen(PageSize), []byte{0x60}),
			fzOp(fzSnapshot, []byte{2, 3}),
		),
		// Maps. A buffer of a page and 100 bytes becomes its fresh span's
		// short slab: loads of the whole span and of its last page read the
		// page tail as zero, a snapshot and a whole copy into the second
		// space share the buffer, and a partial copy out of the region reads
		// past its size. A store into the copy's page tail unshares it. The
		// region is freed while it still borrows the buffer, its span
		// allocated again and written, freed and mapped again, which drops
		// the span's own slab for the buffer, and stored into. A fresh three-page Map
		// in the second space is stored into, and another freed and its
		// span copied into. Seven one-page Maps with the hook on, one of
		// which it refuses, and a Map of nothing.
		slices.Concat(
			fzOp(fzMap, []byte{0}, fzLen(PageSize+100), []byte{0x21}),
			fzOp(fzLoad, fzBase(0, 0), fzPages(2)),
			fzOp(fzSnapshot, []byte{0, 0}),
			fzOp(fzCopy, []byte{6, 0}),
			fzOp(fzCopy, []byte{0}, fzBase(0, PageSize-8), fzSize(300)),
			fzOp(fzSnapshot, []byte{2, 0}),
			fzOp(fzLoadAt, fzBase(0, PageSize), fzLen(PageSize)),
			fzOp(fzStoreInPlace, []byte{1}, fzEnd(0, 5), fzLen(10), []byte{0x31}),
			fzOp(fzFree, []byte{0, 0}),
			fzAllocOp(PageSize+100),
			fzOp(fzStore, fzBase(1, 0), fzLen(PageSize+100), []byte{0x41}),
			fzOp(fzFree, []byte{1, 0}),
			fzOp(fzMap, []byte{0}, fzLen(2*PageSize), []byte{0x51}),
			fzOp(fzStore, fzBase(1, 8), fzLen(16), []byte{0x61}),
			fzOp(fzMap, []byte{1}, fzLen(3*PageSize-1), []byte{0x71}),
			fzOp(fzStoreInPlace, []byte{1}, fzBase(1, 100), fzLen(10), []byte{0x72}),
			fzOp(fzMap, []byte{1}, fzLen(PageSize), []byte{0x73}),
			fzOp(fzFree, []byte{2, 3}),
			fzOp(fzCopy, []byte{6, 0}),
			fzOp(fzHook),
			fzOp(fzMap, []byte{1}, fzLen(1), []byte{1}),
			fzOp(fzMap, []byte{1}, fzLen(2), []byte{2}),
			fzOp(fzMap, []byte{1}, fzLen(3), []byte{3}),
			fzOp(fzMap, []byte{1}, fzLen(4), []byte{4}),
			fzOp(fzMap, []byte{1}, fzLen(5), []byte{5}),
			fzOp(fzMap, []byte{1}, fzLen(6), []byte{6}),
			fzOp(fzMap, []byte{1}, fzLen(7), []byte{7}),
			fzOp(fzMap, []byte{0}, fzLen(0), []byte{8}),
		),
	}
}
