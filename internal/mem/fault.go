package mem

import (
	"errors"
	"fmt"
)

// AccessKind identifies the operation that triggered a fault.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return fmt.Sprintf("access(%d)", uint8(k))
	}
}

// Fault is a memory protection violation: the simulated equivalent of a
// SIGSEGV delivered on a page-permission violation or unmapped access.
type Fault struct {
	// Space is the id of the address space in which the fault occurred.
	Space SpaceID
	// Addr is the faulting virtual address.
	Addr Addr
	// Kind is the attempted access.
	Kind AccessKind
	// Perm is the permission of the page at the time of the fault;
	// meaningful only when Mapped is true.
	Perm Perm
	// Mapped reports whether the address was mapped at all.
	Mapped bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if !f.Mapped {
		return fmt.Sprintf("memory fault: %s of unmapped address %#x in space %d", f.Kind, uint64(f.Addr), f.Space)
	}
	return fmt.Sprintf("memory fault: %s of address %#x in space %d (page perm %s)", f.Kind, uint64(f.Addr), f.Space, f.Perm)
}

// IsFault reports whether err is (or wraps) a memory Fault, returning it.
func IsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// ErrBadRange indicates a request spanning a non-allocated or invalid range.
var ErrBadRange = errors.New("mem: invalid address range")

// ErrOutOfMemory indicates the address space cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("mem: out of memory")
