package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCountersAccumulate(t *testing.T) {
	c := New()
	c.AddIPC(100)
	c.AddIPC(-5) // negative byte counts are ignored
	c.AddLazyCopy(50)
	c.AddEagerCopy(25)
	c.AddPermFlip(3)
	c.AddRestart()
	c.AddDenial()
	c.AddAPICall()
	c.AddCheckpoint()
	s := c.Snapshot()
	if s.IPCCalls != 2 || s.BytesMoved != 175 || s.LazyCopies != 1 || s.EagerCopies != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.PermFlips != 1 || s.PagesFlip != 3 || s.Restarts != 1 || s.Denials != 1 ||
		s.APICalls != 1 || s.Checkpoints != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestLazyFraction(t *testing.T) {
	c := New()
	if c.Snapshot().LazyFraction() != 0 {
		t.Fatal("empty counters fraction should be 0")
	}
	for i := 0; i < 19; i++ {
		c.AddLazyCopy(1)
	}
	c.AddEagerCopy(1)
	if f := c.Snapshot().LazyFraction(); f != 0.95 {
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
				c.AddIPC(1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Snapshot().IPCCalls; got != 4000 {
		t.Fatalf("concurrent IPC count = %d", got)
	}
}

func TestWarmColdCounters(t *testing.T) {
	c := New()
	c.AddWarmHit()
	c.AddWarmHit()
	c.AddColdMiss()
	c.AddPartitionSplit()
	s := c.Snapshot()
	if s.WarmHits != 2 || s.ColdMisses != 1 || s.PartitionSplits != 1 {
		t.Fatalf("warm/cold counters = %d/%d/%d, want 2/1/1",
			s.WarmHits, s.ColdMisses, s.PartitionSplits)
	}
}

func TestAddAllocatesNothing(t *testing.T) {
	c := New()
	allocs := testing.AllocsPerRun(100, func() {
		c.AddIPC(8)
		c.AddAPICall()
		c.AddHedgeWork(1)
		c.AddRejected()
	})
	if allocs != 0 {
		t.Fatalf("Add* allocated %v times per run, want 0", allocs)
	}
}
