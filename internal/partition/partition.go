// Package partition attaches explicit partitioning metadata to streaming
// workloads and remembers where each session's cache is warm.
//
// A Meta describes how a workload's session-key space is carved into
// partitions — hash or range strategy, per-partition size and class
// distribution, and a preferred shard slot per partition — mirroring the
// metadata a data partitioner ships alongside each split so the placement
// layer can make cost-aware decisions instead of uniform ones. A
// PlacementMemory persists per-session placement history so a returning
// session can be scored toward the shard whose (simulated) page cache still
// holds its working set; the warm-hit/cold-miss spread is priced by
// vclock.CostModel.ColdMissCost the same way socket hops already are.
//
// Everything here is deterministic and byte-replayable: iteration orders
// are sorted, no wall clock or global RNG is consulted, and Encode renders
// a canonical byte form so replay tests can compare whole memories.
package partition

import (
	"fmt"
	"sort"
)

// Strategy selects how session keys map onto partitions.
type Strategy int

const (
	// Hash partitions by key modulo partition count — uniform spread,
	// no range semantics.
	Hash Strategy = iota
	// Range partitions by contiguous key intervals — preserves locality
	// of adjacent keys and supports splitting a hot range in two.
	Range
)

// String renders the strategy name.
func (s Strategy) String() string {
	switch s {
	case Hash:
		return "hash"
	case Range:
		return "range"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Info is one partition's metadata: its key interval (for Range; Hash
// partitions use Lo as the residue class), accumulated size and session
// counts, the class distribution of its traffic, and the shard slot the
// scheduler should prefer for it.
type Info struct {
	// ID is the partition's index in Meta.Parts.
	ID int
	// Lo and Hi bound the partition's keys: Range partitions own keys in
	// [Lo, Hi); Hash partitions own keys with key % len(parts) == Lo.
	Lo, Hi uint64
	// Bytes is the cumulative working-set bytes attributed to the
	// partition's sessions.
	Bytes int64
	// Sessions is the cumulative session-visit count.
	Sessions int
	// Classes is the partition's traffic class distribution (class name →
	// visit count), e.g. detection vs grading traffic.
	Classes map[string]int
	// Preferred is the shard slot the placer should steer this partition
	// toward, or -1 when unset.
	Preferred int
}

// Meta is a workload's partitioning descriptor.
type Meta struct {
	// Strategy picks the key→partition mapping.
	Strategy Strategy
	// KeySpace is the exclusive upper bound of session keys (Range only).
	KeySpace uint64
	// Parts holds the partitions, ordered by ID; Range partitions are
	// also ordered by Lo and tile [0, KeySpace).
	Parts []Info
}

// New builds a Meta with n partitions over keys in [0, keySpace). Range
// metas get equal-width intervals; Hash metas get residue classes. All
// preferred slots start unset (-1).
func New(strategy Strategy, n int, keySpace uint64) *Meta {
	if n <= 0 {
		n = 1
	}
	if keySpace == 0 {
		keySpace = 1
	}
	m := &Meta{Strategy: strategy, KeySpace: keySpace}
	for i := 0; i < n; i++ {
		p := Info{ID: i, Preferred: -1, Classes: map[string]int{}}
		if strategy == Range {
			w := keySpace / uint64(n)
			p.Lo = uint64(i) * w
			p.Hi = p.Lo + w
			if i == n-1 {
				p.Hi = keySpace
			}
		} else {
			p.Lo = uint64(i)
		}
		m.Parts = append(m.Parts, p)
	}
	return m
}

// PartitionOf maps a session key to its partition's ID. Unknown keys
// (beyond KeySpace under Range) land in the last partition.
func (m *Meta) PartitionOf(key uint64) int {
	if m == nil || len(m.Parts) == 0 {
		return -1
	}
	if m.Strategy == Hash {
		return int(key % uint64(len(m.Parts)))
	}
	// Parts tile the key space in Lo order; binary search the interval.
	i := sort.Search(len(m.Parts), func(i int) bool { return key < m.Parts[i].Hi })
	if i == len(m.Parts) {
		return m.Parts[len(m.Parts)-1].ID
	}
	return m.Parts[i].ID
}

// Prefer steers partition part toward shard slot. No-op for unknown parts.
func (m *Meta) Prefer(part, slot int) {
	if m == nil || part < 0 || part >= len(m.Parts) {
		return
	}
	m.Parts[part].Preferred = slot
}

// Preferred returns the preferred shard slot for the partition owning key,
// or -1 when the key is unmapped or the partition has no preference.
func (m *Meta) Preferred(key uint64) int {
	p := m.PartitionOf(key)
	if p < 0 {
		return -1
	}
	return m.Parts[p].Preferred
}

// Record accumulates one session visit into the owning partition's
// metadata: bytes of working set and a traffic class tick.
func (m *Meta) Record(key uint64, bytes int64, class string) {
	p := m.PartitionOf(key)
	if p < 0 {
		return
	}
	info := &m.Parts[p]
	info.Bytes += bytes
	info.Sessions++
	if class != "" {
		if info.Classes == nil {
			info.Classes = map[string]int{}
		}
		info.Classes[class]++
	}
}

// Split divides a Range partition at its key midpoint: the original keeps
// [Lo, mid) and a new partition (appended, re-IDed in Lo order) takes
// [mid, Hi) with the given preferred slot. Returns the new partition's ID,
// or -1 when the split is impossible (hash strategy, unknown part, or an
// interval of width < 2).
func (m *Meta) Split(part, preferred int) int {
	if m == nil || m.Strategy != Range || part < 0 || part >= len(m.Parts) {
		return -1
	}
	p := m.Parts[part]
	if p.Hi-p.Lo < 2 {
		return -1
	}
	return m.SplitAt(part, p.Lo+(p.Hi-p.Lo)/2, preferred)
}

// SplitAt divides a Range partition at an explicit key: the original keeps
// [Lo, at) and a new partition (re-IDed in Lo order) takes [at, Hi) with
// the given preferred slot. Splitting at the observed load midpoint rather
// than the key midpoint is what makes a hot-range split effective when
// popularity concentrates at one end of the range — the same reason
// range-sharded stores split regions at the data median, not the key-space
// median. Accumulated size and class counts stay with the lower half (they
// describe history, not the future). Returns the new partition's ID, or -1
// when the split is impossible (hash strategy, unknown part, or a split
// point outside (Lo, Hi)).
func (m *Meta) SplitAt(part int, at uint64, preferred int) int {
	if m == nil || m.Strategy != Range || part < 0 || part >= len(m.Parts) {
		return -1
	}
	p := m.Parts[part]
	if at <= p.Lo || at >= p.Hi {
		return -1
	}
	mid := at
	m.Parts[part].Hi = mid
	m.Parts = append(m.Parts, Info{
		Lo: mid, Hi: p.Hi, Preferred: preferred, Classes: map[string]int{},
	})
	sort.Slice(m.Parts, func(i, j int) bool { return m.Parts[i].Lo < m.Parts[j].Lo })
	newID := -1
	for i := range m.Parts {
		m.Parts[i].ID = i
		if m.Parts[i].Lo == mid {
			newID = i
		}
	}
	return newID
}

// Encode renders the meta in a canonical byte form (sorted class keys) for
// byte-replayability comparisons.
func (m *Meta) Encode() []byte {
	if m == nil {
		return nil
	}
	out := fmt.Sprintf("meta %s keyspace=%d\n", m.Strategy, m.KeySpace)
	for _, p := range m.Parts {
		out += fmt.Sprintf("part %d [%d,%d) bytes=%d sessions=%d pref=%d",
			p.ID, p.Lo, p.Hi, p.Bytes, p.Sessions, p.Preferred)
		names := make([]string, 0, len(p.Classes))
		for k := range p.Classes {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			out += fmt.Sprintf(" %s=%d", k, p.Classes[k])
		}
		out += "\n"
	}
	return []byte(out)
}
