package vclock

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestPercentileEmpty pins the zero-sample convention: every percentile of
// an empty distribution reads zero, not a panic or a sentinel.
func TestPercentileEmpty(t *testing.T) {
	var l Latencies
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := l.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	if l.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", l.Mean())
	}
	if l.Len() != 0 {
		t.Fatalf("empty Len = %d, want 0", l.Len())
	}
}

// TestPercentileSingleSample checks that one sample answers every
// percentile: nearest-rank with n=1 always resolves to rank 1.
func TestPercentileSingleSample(t *testing.T) {
	var l Latencies
	l.Add(42)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := l.Percentile(p); got != 42 {
			t.Fatalf("single-sample Percentile(%v) = %v, want 42", p, got)
		}
	}
}

// TestPercentileBounds pins the p0/p100 endpoints (and out-of-range
// clamps) to the minimum and maximum samples.
func TestPercentileBounds(t *testing.T) {
	var l Latencies
	for _, d := range []Duration{30, 10, 50, 20, 40} {
		l.Add(d)
	}
	cases := []struct {
		p    float64
		want Duration
	}{
		{-5, 10}, {0, 10}, {100, 50}, {150, 50},
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestPercentileNearestRank pins the nearest-rank definition —
// ceil(p/100*n), 1-based — on a distribution small enough to enumerate.
func TestPercentileNearestRank(t *testing.T) {
	var l Latencies
	for i := 1; i <= 10; i++ {
		l.Add(Duration(i * 100))
	}
	cases := []struct {
		p    float64
		want Duration
	}{
		{10, 100},  // rank ceil(1) = 1
		{11, 200},  // rank ceil(1.1) = 2
		{50, 500},  // rank ceil(5) = 5
		{51, 600},  // rank ceil(5.1) = 6
		{90, 900},  // rank ceil(9) = 9
		{95, 1000}, // rank ceil(9.5) = 10
		{99, 1000}, // rank ceil(9.9) = 10
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestPercentileDuplicates checks that tied samples are each ranked: a
// distribution dominated by one value answers that value across the
// quantile range instead of skipping ranks.
func TestPercentileDuplicates(t *testing.T) {
	var l Latencies
	for i := 0; i < 9; i++ {
		l.Add(70)
	}
	l.Add(900)
	for _, p := range []float64{1, 25, 50, 89, 90} {
		if got := l.Percentile(p); got != 70 {
			t.Fatalf("Percentile(%v) = %v, want 70", p, got)
		}
	}
	if got := l.Percentile(91); got != 900 {
		t.Fatalf("Percentile(91) = %v, want 900", got)
	}
	if got := l.Percentile(100); got != 900 {
		t.Fatalf("Percentile(100) = %v, want 900", got)
	}
}

// TestPercentileMonotone sweeps the quantile range and requires the
// percentile function to be non-decreasing — the property every caller
// (hedge-delay derivation included) implicitly relies on.
func TestPercentileMonotone(t *testing.T) {
	var l Latencies
	// A lumpy distribution: duplicates, a gap, and an outlier.
	for _, d := range []Duration{5, 5, 5, 8, 8, 21, 21, 21, 34, 1000} {
		l.Add(d)
	}
	prev := l.Percentile(0)
	for p := 1; p <= 100; p++ {
		cur := l.Percentile(float64(p))
		if cur < prev {
			t.Fatalf("Percentile not monotone: p%d = %v < p%d = %v", p, cur, p-1, prev)
		}
		prev = cur
	}
}

// TestAddClampsNegative pins the clamp: negative samples (a crashed shard
// clock reading zero) record as zero rather than corrupting the sort.
func TestAddClampsNegative(t *testing.T) {
	var l Latencies
	l.Add(-5)
	l.Add(10)
	if got := l.Percentile(0); got != 0 {
		t.Fatalf("min after negative Add = %v, want 0", got)
	}
}

// refLatencies is the reference Latencies is held to: it keeps every
// sample and reads nearest-rank percentiles and the integer-division mean
// off the sorted list.
type refLatencies []Duration

func (r *refLatencies) add(d Duration) { *r = append(*r, max(d, 0)) }

func (r refLatencies) percentile(p float64) Duration {
	s := slices.Clone(r)
	slices.Sort(s)
	switch {
	case len(s) == 0:
		return 0
	case p <= 0:
		return s[0]
	case p >= 100:
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func (r refLatencies) mean() Duration {
	if len(r) == 0 {
		return 0
	}
	var sum Duration
	for _, d := range r {
		sum += d
	}
	return sum / Duration(len(r))
}

// checkAgainst fails unless l reads as ref on every statistic.
func checkAgainst(t *testing.T, l *Latencies, ref refLatencies) {
	t.Helper()
	for _, p := range []float64{0, 0.1, 50, 95, 99, 99.9, 100} {
		if got, want := l.Percentile(p), ref.percentile(p); got != want {
			t.Fatalf("n=%d: Percentile(%v) = %v, want %v", len(ref), p, got, want)
		}
	}
	if got, want := l.Mean(), ref.mean(); got != want {
		t.Fatalf("n=%d: Mean = %v, want %v", len(ref), got, want)
	}
	if l.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(ref))
	}
}

// TestLatenciesMatchReference holds the value→count table to a reference
// that keeps every sample: random sample sets of 0 to 2,000 samples, few
// distinct values or many, some negative (clamped to zero), a sum that
// does not divide evenly.
func TestLatenciesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var l Latencies
		var ref refLatencies
		distinct := 1 + rng.Intn(1+trial*5)
		for range rng.Intn(2001) {
			d := Duration(rng.Intn(distinct))*997 - 2000
			l.Add(d)
			ref.add(d)
		}
		checkAgainst(t, &l, ref)
	}
}

// TestLatenciesConcurrentAdd: samples added from several goroutines at
// once are all counted (run under -race).
func TestLatenciesConcurrentAdd(t *testing.T) {
	const workers, each = 4, 500
	var l Latencies
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				l.Add(Duration((i*7 + w) % 37))
			}
		}()
	}
	wg.Wait()
	var ref refLatencies
	for w := range workers {
		for i := range each {
			ref.add(Duration((i*7 + w) % 37))
		}
	}
	checkAgainst(t, &l, ref)
}
