package replay

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestPercentileNearestRankGolden pins the percentile convention: with a
// fixed 10-sample vector, nearest-rank p50/p90/p99 are exactly the 5th,
// 9th and 10th order statistics — observed samples, never interpolations.
func TestPercentileNearestRankGolden(t *testing.T) {
	// Deliberately unsorted: sortSample must sort a copy.
	sample := []time.Duration{ms(7), ms(1), ms(10), ms(3), ms(9), ms(5), ms(2), ms(8), ms(4), ms(6)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, ms(1)},
		{1, ms(1)},
		{10, ms(1)},
		{11, ms(2)},
		{50, ms(5)},
		{90, ms(9)},
		{99, ms(10)},
		{100, ms(10)},
	}
	for _, c := range cases {
		if got := metrics.Percentile(sortSample(sample), c.p); got != c.want {
			t.Errorf("P%g = %v, want %v", c.p, got, c.want)
		}
	}
	// The input must not have been reordered.
	if sample[0] != ms(7) || sample[9] != ms(6) {
		t.Error("sortSample mutated its input")
	}
}

// TestPercentileEdgeCases covers empty and single-sample vectors.
func TestPercentileEdgeCases(t *testing.T) {
	if got := metrics.Percentile(sortSample(nil), 50); got != 0 {
		t.Errorf("empty sample P50 = %v, want 0", got)
	}
	one := []time.Duration{ms(4)}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := metrics.Percentile(one, p); got != ms(4) {
			t.Errorf("single sample P%g = %v, want 4ms", p, got)
		}
	}
}

// TestLatenciesAndMean checks the helpers the Result aggregation uses.
func TestLatenciesAndMean(t *testing.T) {
	ops := []OpResult{
		{Start: ms(1), Done: ms(3)},
		{Start: ms(4), Done: ms(8)},
	}
	lats := latencies(ops)
	if lats[0] != ms(2) || lats[1] != ms(4) {
		t.Fatalf("latencies %v", lats)
	}
	if got := meanDuration(lats); got != ms(3) {
		t.Errorf("mean = %v, want 3ms", got)
	}
	if got := meanDuration(nil); got != 0 {
		t.Errorf("empty mean = %v, want 0", got)
	}
}
