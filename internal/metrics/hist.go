package metrics

import (
	"strconv"
	"strings"
	"time"
)

// Per-op latency histograms: the replay engine folds each cell's op
// latencies into log-spaced cumulative buckets and emits them as one
// sample event under SubsysHist, so latency distributions survive in the
// telemetry stream and cmd/metrics can re-derive percentiles offline
// without re-running the simulation (docs/METRICS.md).

// histBucketPrefix prefixes cumulative bucket counter names. The rest of
// the name is the bucket's inclusive upper bound in nanoseconds, zero-
// padded to 12 digits so counters sort in bound order.
const histBucketPrefix = "le_"

// histBound renders one bucket counter name.
func histBound(ns int64) string {
	return histBucketPrefix + formatBound(ns)
}

func formatBound(ns int64) string {
	s := strconv.FormatInt(ns, 10)
	if pad := 12 - len(s); pad > 0 {
		s = strings.Repeat("0", pad) + s
	}
	return s
}

// LatencyHistogram folds latencies into log-spaced cumulative counters:
// bucket le_<bound> counts ops at or under bound nanoseconds, and bounds
// double from 1024 ns until one covers the maximum. Buckets below the
// fastest op are omitted (they would all be zero), as are bounds past the
// first covering one (they would all equal count). Two extra counters,
// count and sum_ns, carry the op total and summed latency so means and
// rates fall out of the same event. Returns nil for an empty input.
func LatencyHistogram(lats []time.Duration) map[string]int64 {
	if len(lats) == 0 {
		return nil
	}
	var min, max, sum time.Duration
	min = lats[0]
	for _, l := range lats {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		sum += l
	}
	lo := int64(1024)
	for lo < int64(min) {
		lo <<= 1
	}
	out := map[string]int64{
		"count":  int64(len(lats)),
		"sum_ns": int64(sum),
	}
	for bound := lo; ; bound <<= 1 {
		var n int64
		for _, l := range lats {
			if int64(l) <= bound {
				n++
			}
		}
		out[histBound(bound)] = n
		if bound >= int64(max) {
			break
		}
	}
	return out
}

// histogramQuantile inverts a LatencyHistogram counter set: it returns the
// upper bound of the bucket holding the nearest-rank p-th percentile (the
// same convention as the replay engine's exact percentiles, quantized up
// to a bucket bound). The bool reports whether counters held a histogram.
func histogramQuantile(counters map[string]int64, p float64) (time.Duration, bool) {
	total := counters["count"]
	if total <= 0 {
		return 0, false
	}
	type bucket struct {
		bound int64
		cum   int64
	}
	var buckets []bucket
	for k, v := range counters {
		if !strings.HasPrefix(k, histBucketPrefix) {
			continue
		}
		bound, err := strconv.ParseInt(k[len(histBucketPrefix):], 10, 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{bound, v})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	// Bounds are powers of two, so sorting by bound == sorting by name.
	for i := 1; i < len(buckets); i++ {
		for j := i; j > 0 && buckets[j-1].bound > buckets[j].bound; j-- {
			buckets[j-1], buckets[j] = buckets[j], buckets[j-1]
		}
	}
	rank := int64(p / 100 * float64(total))
	if float64(rank) < p/100*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	for _, b := range buckets {
		if b.cum >= rank {
			return time.Duration(b.bound), true
		}
	}
	return time.Duration(buckets[len(buckets)-1].bound), true
}
