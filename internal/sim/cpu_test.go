package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refWindows is the utilization accounting as it was when the windows were
// a map from window index to busy time: CPU must report the same
// percentiles over every elapsed time.
type refWindows map[int64]time.Duration

func (r refWindows) account(w, begin, service time.Duration) {
	for service > 0 {
		idx := int64(begin / w)
		slice := min(time.Duration(idx+1)*w-begin, service)
		r[idx] += slice
		begin += slice
		service -= slice
	}
}

func (r refWindows) percentile(w time.Duration, p float64, elapsed time.Duration) float64 {
	n := max(int64(elapsed/w), 1)
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = min(float64(r[int64(i)])/float64(w), 1)
	}
	sort.Float64s(samples)
	switch {
	case p <= 0:
		return samples[0]
	case p >= 1:
		return samples[len(samples)-1]
	}
	idx := min(max(int(p*float64(len(samples))+0.5)-1, 0), len(samples)-1)
	return samples[idx]
}

// TestUtilizationMatchesMapReference: random run-queue and interrupt work,
// some of it starting late, reads the same percentiles as the map over
// elapsed times short of, at and well past the last busy window.
func TestUtilizationMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		c := NewCPU(0.5 + rng.Float64())
		c.Window = time.Duration(1+rng.Intn(4)) * 500 * time.Millisecond
		ref := refWindows{}
		at := time.Duration(rng.Intn(3)) * 7 * time.Second // a late first window
		for op := rng.Intn(40); op >= 0; op-- {
			at += time.Duration(rng.Int63n(int64(3 * time.Second)))
			demand := time.Duration(rng.Int63n(int64(1500 * time.Millisecond)))
			if rng.Intn(3) == 0 {
				done := c.Interrupt(at, demand)
				ref.account(c.Window, at, done-at)
				continue
			}
			begin := max(at, c.res.busyUntil)
			done := c.Run(at, demand)
			ref.account(c.Window, begin, done-begin)
		}
		for _, elapsed := range []time.Duration{0, c.Window, at / 2, at, at + 10*c.Window, 3 * at} {
			for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.95, 1} {
				if got, want := c.UtilizationPercentile(p, elapsed), ref.percentile(c.Window, p, elapsed); got != want {
					t.Fatalf("trial %d: p%.0f over %v: %v, the map reads %v", trial, 100*p, elapsed, got, want)
				}
			}
		}
	}
}

// TestUtilizationPastTheLastBusyWindow: windows past the last one with any
// work are idle samples, and a CPU whose first work is late has idle
// windows before it.
func TestUtilizationPastTheLastBusyWindow(t *testing.T) {
	c := NewCPU(1)
	c.Run(9*time.Second, time.Second) // the fifth 2 s window, half busy
	if n := len(c.windows); n != 5 {
		t.Fatalf("%d windows kept for work ending in the fifth", n)
	}
	for _, tc := range []struct {
		p       float64
		elapsed time.Duration
		want    float64
	}{
		{1, 10 * time.Second, 0.5},
		{0.8, 10 * time.Second, 0}, // four idle windows before it
		{1, 8 * time.Second, 0},    // elapsed ends before the work
		{1, 100 * time.Second, 0.5},
		{0.95, 100 * time.Second, 0}, // 49 trailing samples, all idle
		{1, 0, 0},
	} {
		if got := c.UtilizationPercentile(tc.p, tc.elapsed); got != tc.want {
			t.Errorf("p%.0f over %v = %v, want %v", 100*tc.p, tc.elapsed, got, tc.want)
		}
	}
}
