package ipc

import (
	"bytes"
	"testing"

	"freepart.dev/freepart/internal/vclock"
)

// faultScript takes the fate of successive messages from a byte script,
// one byte per message in the order the connection asks (request, then
// response, per attempt): bit 0 drops, bit 1 duplicates, bit 2 corrupts,
// bit 3 stalls. An exhausted script delivers normally.
type faultScript struct{ script []byte }

func (s *faultScript) next() MessageFault {
	if len(s.script) == 0 {
		return MessageFault{}
	}
	b := s.script[0]
	s.script = s.script[1:]
	f := MessageFault{Drop: b&1 != 0, Duplicate: b&2 != 0, Corrupt: b&4 != 0}
	if b&8 != 0 {
		f.Stall = vclock.Duration(b)
	}
	return f
}

func (s *faultScript) RequestFault(uint64, []byte) MessageFault  { return s.next() }
func (s *faultScript) ResponseFault(uint64, []byte) MessageFault { return s.next() }

// maxScript bounds the fault script. Every failed attempt consumes at least
// one script byte, so maxScript+1 attempts always reach a clean one.
const maxScript = 64

// FuzzConnExactlyOnce drives one sequence through CallSeq, re-issued under
// the same sequence until it succeeds, with faults scripted per message. Whatever the faults, the call must succeed within the bound,
// echo its payload intact, and execute the handler exactly once.
func FuzzConnExactlyOnce(f *testing.F) {
	f.Add([]byte{}, []byte("payload"))
	f.Add([]byte{1}, []byte("dropped request"))
	f.Add([]byte{0, 1}, []byte("dropped response"))
	f.Add([]byte{2}, []byte("duplicated request"))
	f.Add([]byte{4, 0}, []byte("corrupt request"))
	f.Add([]byte{0, 4}, []byte("corrupt response"))
	f.Add([]byte{8, 8}, []byte("stalled"))
	f.Add([]byte{6, 0, 1, 3, 5}, []byte{})
	f.Fuzz(func(t *testing.T, script, payload []byte) {
		if len(script) > maxScript {
			script = script[:maxScript]
		}
		executions := 0
		c := NewConn(vclock.New(), vclock.Default(), func(kind uint32, p []byte) ([]byte, error) {
			executions++
			return p, nil
		})
		c.SetInjector(&faultScript{script: script})
		want := append([]byte(nil), payload...)
		seq := c.NextSeq()
		out, err := c.CallSeq(seq, 1, payload)
		for attempt := 1; err != nil && attempt <= maxScript; attempt++ {
			out, err = c.CallSeq(seq, 1, payload)
		}
		if err != nil {
			t.Fatalf("no clean attempt within %d retries: %v", maxScript, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("echo = %q, want %q", out, want)
		}
		if executions != 1 {
			t.Fatalf("handler ran %d times, want exactly once", executions)
		}
	})
}
