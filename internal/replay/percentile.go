package replay

import (
	"slices"
	"time"
)

// sortSample returns an ascending copy of sample (the input is never
// reordered); aggregation sorts each latency vector once and indexes it
// with metrics.Percentile for every percentile.
func sortSample(sample []time.Duration) []time.Duration {
	s := slices.Clone(sample)
	slices.Sort(s)
	return s
}

// latencies extracts the per-op service latency vector from results, in
// slice order.
func latencies(ops []OpResult) []time.Duration {
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
