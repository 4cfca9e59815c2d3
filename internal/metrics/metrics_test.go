package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCountersAccumulate(t *testing.T) {
	c := New()
	c.Update(func(m *Snapshot) {
		m.IPCCalls++
		m.BytesMoved += 100
	})
	c.Update(func(m *Snapshot) { m.LazyCopies++ })
	c.Update(func(m *Snapshot) { m.HedgeWork += 5 })
	s := c.Snapshot()
	if s.IPCCalls != 1 || s.BytesMoved != 100 || s.LazyCopies != 1 || s.HedgeWork != 5 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestLazyFraction(t *testing.T) {
	if (Snapshot{}).LazyFraction() != 0 {
		t.Fatal("empty counters fraction should be 0")
	}
	if f := (Snapshot{LazyCopies: 19, EagerCopies: 1}).LazyFraction(); f != 0.95 {
		t.Fatalf("fraction = %v, want 0.95", f)
	}
}

func TestOverhead(t *testing.T) {
	if got := Overhead(100*time.Millisecond, 103*time.Millisecond); got < 2.9 || got > 3.1 {
		t.Fatalf("overhead = %v, want ~3", got)
	}
	if Overhead(0, time.Second) != 0 {
		t.Fatal("zero base should report 0")
	}
	if Overhead(time.Second, time.Second) != 0 {
		t.Fatal("equal times should report 0")
	}
}

func TestOverheadMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		base := time.Duration(a%1000+1) * time.Millisecond
		p1 := base + time.Duration(b%100)*time.Millisecond
		p2 := p1 + time.Millisecond
		return Overhead(base, p2) > Overhead(base, p1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCounters(t *testing.T) {
	c := New()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 500; j++ {
				c.Update(func(m *Snapshot) {
					m.IPCCalls++
					m.BytesMoved++
				})
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if s := c.Snapshot(); s.IPCCalls != 4000 || s.BytesMoved != 4000 {
		t.Fatalf("concurrent counts = %d calls, %d bytes; want 4000 each", s.IPCCalls, s.BytesMoved)
	}
}

// TestAddAllocatesNothing: a func literal passed to Update does not
// escape, so adding to the counters allocates nothing, even through a
// literal that captures a local.
func TestAddAllocatesNothing(t *testing.T) {
	c := New()
	n := 8
	allocs := testing.AllocsPerRun(100, func() {
		c.Update(func(m *Snapshot) {
			m.IPCCalls++
			m.BytesMoved += uint64(n)
		})
		c.Update(func(m *Snapshot) { m.APICalls++ })
	})
	if allocs != 0 {
		t.Fatalf("Update allocated %v times per run, want 0", allocs)
	}
}

func TestEventRendering(t *testing.T) {
	log := Log{
		{Tick: 3, At: 1500, Kind: "escalate", Detail: "loading: domain -> process"},
		{At: 2 * time.Microsecond, Shard: 1, Gen: 2, Kind: "drain", Detail: "crashed"},
	}
	want := "tick 3 @1.5µs escalate loading: domain -> process\n" +
		"@2µs shard 1/gen 2 drain crashed\n"
	if got := log.String(); got != want {
		t.Fatalf("log renders\n%q\nwant\n%q", got, want)
	}
}
