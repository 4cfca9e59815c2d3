package object

import (
	"fmt"
	"sync"
)

// Store is a read-only object store shared across runtime shards.
// Immutable artifacts — model weights, classifier files, grading
// templates — are built exactly once and every shard reads the same backing
// bytes instead of re-materializing its own copy.
//
// Safe for concurrent use: builds are single-flight, so two shards racing
// to intern the same key run the builder once and share the result.
type Store struct {
	mu      sync.Mutex
	entries map[string]*entry

	builds      uint64
	hits        uint64
	sharedBytes uint64 // payload bytes served from cache instead of rebuilt
}

// entry pairs an immutable with the once-guard that builds it, so Intern
// holds no store-wide lock while a builder runs.
type entry struct {
	once sync.Once
	im   *Immutable
	err  error
}

// StoreStats counts store activity.
type StoreStats struct {
	// Builds is how many artifacts were actually constructed.
	Builds uint64
	// Hits is how many Intern calls were answered from the store.
	Hits uint64
	// SharedBytes is the payload volume the store served without
	// rebuilding — the memory and virtual time the COW design saves.
	SharedBytes uint64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[string]*entry)}
}

// Intern returns the immutable registered under name, building it with
// build on first use. Concurrent interns of the same name run build exactly
// once; every caller shares the same backing payload.
func (s *Store) Intern(name string, kind Kind, build func() ([]byte, error)) (*Immutable, error) {
	s.mu.Lock()
	e, ok := s.entries[name]
	if !ok {
		e = &entry{}
		s.entries[name] = e
	}
	s.mu.Unlock()

	built := false
	e.once.Do(func() {
		built = true
		payload, err := build()
		if err != nil {
			e.err = err
			return
		}
		if len(payload) == 0 {
			e.err = fmt.Errorf("object: store artifact %q built empty", name)
			return
		}
		e.im = &Immutable{name: name, kind: kind, payload: payload}
	})
	if e.err != nil {
		return nil, e.err
	}

	s.mu.Lock()
	if built {
		s.builds++
	} else {
		s.hits++
		s.sharedBytes += uint64(len(e.im.payload))
	}
	s.mu.Unlock()
	return e.im, nil
}

// Len returns the number of successfully interned artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.entries {
		if e.im != nil {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Builds: s.builds, Hits: s.hits, SharedBytes: s.sharedBytes}
}

// Immutable is one read-only artifact in a Store. Its payload is shared by
// every reader.
type Immutable struct {
	name    string
	kind    Kind
	payload []byte
}

// Name returns the store key.
func (im *Immutable) Name() string { return im.name }

// Kind returns the object kind the artifact rebuilds as.
func (im *Immutable) Kind() Kind { return im.kind }

// Bytes returns the shared backing payload. Callers must treat it as
// read-only: every reader shares these bytes.
func (im *Immutable) Bytes() []byte { return im.payload }
