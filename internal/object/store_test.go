package object

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStoreInternBuildsOnce(t *testing.T) {
	s := NewStore()
	var builds atomic.Int32
	build := func() ([]byte, error) {
		builds.Add(1)
		return []byte("weights-v1"), nil
	}

	first, err := s.Intern("model", KindBlob, build)
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	second, err := s.Intern("model", KindBlob, build)
	if err != nil {
		t.Fatalf("Intern (hit): %v", err)
	}
	if first != second {
		t.Fatal("second Intern returned a different Immutable")
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builder ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 build / 1 hit", st)
	}
	if st.SharedBytes != uint64(len(first.Bytes())) {
		t.Fatalf("SharedBytes = %d, want %d", st.SharedBytes, len(first.Bytes()))
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreInternConcurrentSingleFlight(t *testing.T) {
	s := NewStore()
	var builds atomic.Int32
	const callers = 16
	results := make([]*Immutable, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			im, err := s.Intern("tpl", KindBlob, func() ([]byte, error) {
				builds.Add(1)
				return []byte("template"), nil
			})
			if err != nil {
				t.Errorf("Intern: %v", err)
				return
			}
			results[i] = im
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("builder ran %d times under contention, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct Immutable", i)
		}
	}
}

func TestStoreSharedBytesIdentity(t *testing.T) {
	s := NewStore()
	im, err := s.Intern("blob", KindBlob, func() ([]byte, error) {
		return []byte{1, 2, 3, 4}, nil
	})
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	a, b := im.Bytes(), im.Bytes()
	if &a[0] != &b[0] {
		t.Fatal("Bytes did not return the shared backing array")
	}
	if !bytes.Equal(a, []byte{1, 2, 3, 4}) {
		t.Fatalf("shared payload corrupted: %v", a)
	}
}

func TestStoreInternBuildError(t *testing.T) {
	s := NewStore()
	boom := errors.New("boom")
	if _, err := s.Intern("bad", KindBlob, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Intern error = %v, want %v", err, boom)
	}
	// The failed build is sticky — later interns see the same error and the
	// artifact is never counted.
	if _, err := s.Intern("bad", KindBlob, func() ([]byte, error) { return []byte("x"), nil }); !errors.Is(err, boom) {
		t.Fatalf("second Intern error = %v, want sticky %v", err, boom)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if _, err := s.Intern("empty", KindBlob, func() ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("empty build succeeded, want error")
	}
}
