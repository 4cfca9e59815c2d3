// Package framework defines the data-processing framework substrate: the
// API metadata model (types, data-flow operations, syscall needs,
// vulnerabilities), the execution context APIs run in, the registry the
// analyzer and runtime consume, and the value marshalling used across
// process boundaries.
//
// Concrete frameworks live in the subpackages simcv (OpenCV-like),
// simcaffe, simtorch, and simflow. Their APIs are real implementations:
// they allocate buffers in simulated memory, read files and devices through
// the simulated kernel, and compute actual results — so the hybrid
// analyzer's traces, the partitioner's isolation, and the attack payloads
// all exercise genuine data flows.
package framework

import "fmt"

// APIType is the paper's four-way categorization (§4.1) plus the
// type-neutral class (§4.2.2) and an unknown marker for pre-analysis state.
type APIType uint8

// API types.
const (
	TypeUnknown APIType = iota
	TypeLoading
	TypeProcessing
	TypeVisualizing
	TypeStoring
	TypeNeutral
)

// String names the API type as the paper abbreviates it.
func (t APIType) String() string {
	switch t {
	case TypeLoading:
		return "DL"
	case TypeProcessing:
		return "DP"
	case TypeVisualizing:
		return "V"
	case TypeStoring:
		return "ST"
	case TypeNeutral:
		return "N"
	case TypeUnknown:
		return "?"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Long returns the full name used in tables.
func (t APIType) Long() string {
	switch t {
	case TypeLoading:
		return "Data Loading"
	case TypeProcessing:
		return "Data Processing"
	case TypeVisualizing:
		return "Visualizing"
	case TypeStoring:
		return "Storing"
	case TypeNeutral:
		return "Type-Neutral"
	default:
		return "Unknown"
	}
}

// ConcreteTypes lists the four isolatable types in pipeline order.
func ConcreteTypes() []APIType {
	return []APIType{TypeLoading, TypeProcessing, TypeVisualizing, TypeStoring}
}

// Storage is a data origin/destination class (Fig. 8).
type Storage uint8

// Storage classes.
const (
	StorageMem Storage = iota
	StorageGUI
	StorageFile
	StorageDev
)

// String names the storage class as in Fig. 8.
func (s Storage) String() string {
	switch s {
	case StorageMem:
		return "MEM"
	case StorageGUI:
		return "GUI"
	case StorageFile:
		return "FILE"
	case StorageDev:
		return "DEV"
	default:
		return fmt.Sprintf("storage(%d)", uint8(s))
	}
}

// Op is one data-transfer operation W(dst, R(src)) in the Fig. 8 model.
// A pure read (R(GUI) with no write) is expressed with DstValid=false.
type Op struct {
	Dst      Storage
	Src      Storage
	DstValid bool // false for read-only operations like R(GUI)
}

// WriteOp builds W(dst, R(src)).
func WriteOp(dst, src Storage) Op { return Op{Dst: dst, Src: src, DstValid: true} }

// DPOps is the data-processing flow W(MEM, R(MEM)), a fresh slice for each
// API that states it.
func DPOps() []Op { return []Op{WriteOp(StorageMem, StorageMem)} }

// ReadOp builds a pure R(src).
func ReadOp(src Storage) Op { return Op{Src: src} }

// String renders the operation in the paper's notation.
func (o Op) String() string {
	if !o.DstValid {
		return fmt.Sprintf("R(%s)", o.Src)
	}
	return fmt.Sprintf("W(%s, R(%s))", o.Dst, o.Src)
}
