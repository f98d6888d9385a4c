package replay

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank percentile of a latency sample:
// with the sample sorted ascending, P(p) is the value at rank
// ceil(p/100 * N) (1-based). This is the convention storage benchmarks
// (and the paper's latency tables) use: every reported percentile is an
// observed latency, never an interpolation. An empty sample reports 0;
// p <= 0 reports the minimum and p >= 100 the maximum.
func percentile(sample []time.Duration, p float64) time.Duration {
	return sortedPercentile(sortSample(sample), p)
}

// sortSample returns an ascending copy of sample (the input is never
// reordered).
func sortSample(sample []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// sortedPercentile is the nearest-rank lookup on an already-sorted
// sample; aggregation sorts each latency vector once and indexes it for
// every percentile.
func sortedPercentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Latencies extracts the per-op service latency vector from results, in
// slice order.
func Latencies(ops []OpResult) []time.Duration {
	ls := make([]time.Duration, len(ops))
	for i, op := range ops {
		ls[i] = op.Latency()
	}
	return ls
}

// meanDuration averages a sample (0 for an empty one).
func meanDuration(sample []time.Duration) time.Duration {
	if len(sample) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range sample {
		sum += d
	}
	return sum / time.Duration(len(sample))
}
