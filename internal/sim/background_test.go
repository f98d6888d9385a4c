package sim

import (
	"math"
	"testing"
	"time"
)

// TestResourceBackgroundStretch verifies the processor-sharing residual
// rate: with rho background, a foreground service takes 1/(1-rho) longer,
// busy accounting follows the stretched occupancy, and zero background
// stays byte-identical to the pre-hybrid behavior.
func TestResourceBackgroundStretch(t *testing.T) {
	var r Resource
	if done := r.Acquire(0, 10*time.Millisecond); done != 10*time.Millisecond {
		t.Fatalf("no-background acquire done = %v", done)
	}
	if err := r.SetBackground(0.5); err != nil {
		t.Fatal(err)
	}
	if got := r.background(); got != 0.5 {
		t.Fatalf("Background() = %g", got)
	}
	done := r.Acquire(10*time.Millisecond, 10*time.Millisecond)
	if done != 30*time.Millisecond {
		t.Fatalf("stretched acquire done = %v, want 30ms", done)
	}
	if b := r.Busy(); b != 30*time.Millisecond {
		t.Fatalf("busy = %v, want 30ms (10ms full-rate + 20ms residual-rate)", b)
	}
}

// TestResourceBackgroundBounds verifies rho outside [0, 1), or NaN, is an
// error that leaves the background as it was: a saturated resource has no
// residual capacity to simulate against.
func TestResourceBackgroundBounds(t *testing.T) {
	for _, rho := range []float64{-0.1, 1.0, 1.5, math.NaN()} {
		var r Resource
		if err := r.SetBackground(rho); err == nil {
			t.Errorf("SetBackground(%g) returned no error", rho)
		}
		if got := r.background(); got != 0 {
			t.Errorf("refused SetBackground(%g) left background %g", rho, got)
		}
	}
}

// TestCPUBackgroundStretch verifies the CPU passes background through to
// its run queue and books the stretched occupancy into the utilization
// windows, for both run-queue and interrupt-style work.
func TestCPUBackgroundStretch(t *testing.T) {
	c := NewCPU(1.0)
	if err := c.SetBackground(0.75); err != nil {
		t.Fatal(err)
	}
	if got := c.Background(); got != 0.75 {
		t.Fatalf("Background() = %g", got)
	}
	done := c.Run(0, 100*time.Millisecond)
	if done != 400*time.Millisecond {
		t.Fatalf("Run done = %v, want 400ms at quarter rate", done)
	}
	idone := c.Interrupt(done, 100*time.Millisecond)
	if idone != 800*time.Millisecond {
		t.Fatalf("Interrupt done = %v, want 800ms", idone)
	}
	if b := c.Busy(); b != 800*time.Millisecond {
		t.Fatalf("busy = %v, want 800ms", b)
	}
	// Both stretched slices landed in the 2 s utilization window.
	if u := c.UtilizationPercentile(1, 2*time.Second); u != 0.4 {
		t.Fatalf("window utilization = %g, want 0.4", u)
	}
}
