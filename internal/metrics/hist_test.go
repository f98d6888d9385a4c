package metrics

import (
	"testing"
	"time"
)

func TestLatencyHistogramBuckets(t *testing.T) {
	lats := []time.Duration{
		500 * time.Nanosecond, // under the smallest bound
		1024 * time.Nanosecond,
		3 * time.Microsecond,
		100 * time.Microsecond,
	}
	h := LatencyHistogram(lats)
	if h == nil {
		t.Fatal("nil histogram for non-empty input")
	}
	if got := h["count"]; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	if got := h["sum_ns"]; got != int64(sum) {
		t.Fatalf("sum_ns = %d, want %d", got, sum)
	}
	// Cumulative: le_1024 holds the two fastest ops, le_4096 adds the 3us
	// op, and the final bucket (first power of two >= 100us) holds all.
	if got := h["le_000000001024"]; got != 2 {
		t.Fatalf("le_1024 = %d, want 2", got)
	}
	if got := h["le_000000004096"]; got != 3 {
		t.Fatalf("le_4096 = %d, want 3", got)
	}
	if got := h["le_000000131072"]; got != 4 {
		t.Fatalf("le_131072 = %d, want 4", got)
	}
	if _, ok := h["le_000000262144"]; ok {
		t.Fatal("bucket past the covering bound should be omitted")
	}
	if LatencyHistogram(nil) != nil {
		t.Fatal("empty input must yield nil")
	}
}

func TestLatencyHistogramOmitsLeadingBuckets(t *testing.T) {
	h := LatencyHistogram([]time.Duration{300 * time.Microsecond, 400 * time.Microsecond})
	if _, ok := h["le_000000001024"]; ok {
		t.Fatal("buckets below the fastest op should be omitted")
	}
	if got := h["le_000000524288"]; got != 2 {
		t.Fatalf("le_524288 = %d, want 2", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * 10 * time.Microsecond // 10us .. 1ms
	}
	h := LatencyHistogram(lats)
	for _, tc := range []struct{ p, maxBound float64 }{
		{50, float64(1 << 20)}, // exact p50 = 500us -> bucket bound 524288
		{99, float64(1 << 21)}, // exact p99 = 990us -> bucket bound 1048576
	} {
		got, ok := histogramQuantile(h, tc.p)
		if !ok {
			t.Fatalf("p%g: no histogram found", tc.p)
		}
		// The bucket bound brackets the exact nearest-rank percentile
		// from above, within one power of two.
		exact := lats[int(tc.p)-1]
		if got < exact || float64(got) > tc.maxBound {
			t.Fatalf("p%g = %v, want within [%v, %vns]", tc.p, got, exact, tc.maxBound)
		}
	}
	if _, ok := histogramQuantile(map[string]int64{"frames": 3}, 50); ok {
		t.Fatal("non-histogram counters must not yield a quantile")
	}
}

func TestHistogramEventRoundTrip(t *testing.T) {
	h := LatencyHistogram([]time.Duration{time.Microsecond, time.Millisecond})
	e := Event{T: 1, Subsys: SubsysHist, Kind: KindSample, Counters: h}
	b, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range h {
		if back.Counters[k] != v {
			t.Fatalf("counter %s = %d after round trip, want %d", k, back.Counters[k], v)
		}
	}
}
