package vclock

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Latencies accumulates per-request virtual latencies and reports
// percentiles. It keeps an exact value→count table instead of every
// sample: virtual latencies repeat, so the table grows with the distinct
// values, not with the requests, while nearest-rank percentiles and the
// mean are exactly those of the full sample list. Samples are virtual
// durations, so every statistic is bit-reproducible across runs. Safe for
// concurrent Add.
type Latencies struct {
	mu     sync.Mutex
	counts map[Duration]int
	n      int
	sum    Duration
}

// Add records one latency sample. Negative samples are clamped to zero
// (virtual latency cannot be negative; a crashed shard clock reads zero).
func (l *Latencies) Add(d Duration) {
	if d < 0 {
		d = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts == nil {
		l.counts = make(map[Duration]int)
	}
	l.counts[d]++
	l.n++
	l.sum += d
}

// Len returns the number of recorded samples.
func (l *Latencies) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Percentile returns the nearest-rank percentile p in [0, 100]: the
// sample at 1-based rank ceil(p/100 * n) in sorted order, clamped to
// [1, n]. Zero samples read as zero.
func (l *Latencies) Percentile(p float64) Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	rank := 1
	switch {
	case p >= 100:
		rank = l.n
	case p > 0:
		rank = min(max(int(math.Ceil(p/100*float64(l.n))), 1), l.n)
	}
	values := make([]Duration, 0, len(l.counts))
	for v := range l.counts {
		values = append(values, v)
	}
	slices.Sort(values)
	for _, v := range values {
		if rank -= l.counts[v]; rank <= 0 {
			return v
		}
	}
	return values[len(values)-1] // unreachable: the counts sum to n
}

// P50 is the median latency.
func (l *Latencies) P50() Duration { return l.Percentile(50) }

// P95 is the 95th-percentile latency.
func (l *Latencies) P95() Duration { return l.Percentile(95) }

// P99 is the 99th-percentile latency.
func (l *Latencies) P99() Duration { return l.Percentile(99) }

// Mean is the average latency (integer division of virtual nanoseconds).
func (l *Latencies) Mean() Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return l.sum / Duration(l.n)
}

// String summarizes the distribution on one line.
func (l *Latencies) String() string {
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v", l.Len(), l.P50(), l.P95(), l.P99())
}
