package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockMonotonic(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("now = %v", c.Now())
	}
	c.AdvanceTo(3 * time.Second) // earlier: no-op
	if c.Now() != 5*time.Second {
		t.Fatalf("AdvanceTo went backwards: %v", c.Now())
	}
	c.AdvanceTo(8 * time.Second)
	if c.Now() != 8*time.Second {
		t.Fatalf("AdvanceTo: %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	d1 := r.Acquire(0, 10*time.Millisecond)
	d2 := r.Acquire(0, 10*time.Millisecond) // queued behind d1
	if d1 != 10*time.Millisecond || d2 != 20*time.Millisecond {
		t.Fatalf("serialization broken: %v %v", d1, d2)
	}
	// A late arrival does not overlap earlier work.
	d3 := r.Acquire(50*time.Millisecond, 10*time.Millisecond)
	if d3 != 60*time.Millisecond {
		t.Fatalf("idle gap mishandled: %v", d3)
	}
	if r.Busy() != 30*time.Millisecond {
		t.Fatalf("busy accounting: %v", r.Busy())
	}
}

// Property: completions never precede starts and never overlap.
func TestQuickResourceInvariants(t *testing.T) {
	f := func(starts []uint16, svcs []uint8) bool {
		var r Resource
		var lastDone time.Duration
		n := len(starts)
		if len(svcs) < n {
			n = len(svcs)
		}
		for i := 0; i < n; i++ {
			start := time.Duration(starts[i]) * time.Microsecond
			svc := time.Duration(svcs[i]) * time.Microsecond
			done := r.Acquire(start, svc)
			if done < start+svc {
				return false // finished too early
			}
			if done < lastDone {
				return false // overlapping service
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCPUWindowedUtilization(t *testing.T) {
	c := NewCPU(1.0)
	c.Window = time.Second
	// Saturate window 0, half-load window 1, idle window 2.
	c.Run(0, time.Second)
	c.Run(time.Second, 500*time.Millisecond)
	p100 := c.UtilizationPercentile(1.0, 3*time.Second)
	p33 := c.UtilizationPercentile(0.34, 3*time.Second)
	if p100 < 0.99 {
		t.Fatalf("peak window not saturated: %v", p100)
	}
	if p33 > 0.01 {
		t.Fatalf("idle window not idle: %v", p33)
	}
}

func TestCPUInterruptDoesNotGate(t *testing.T) {
	c := NewCPU(1.0)
	c.Window = time.Second
	// A reply processed interrupt-style at t=10ms bills busy time but
	// leaves the run queue free for work starting earlier.
	if done := c.Interrupt(10*time.Millisecond, 2*time.Millisecond); done != 12*time.Millisecond {
		t.Fatalf("interrupt done = %v", done)
	}
	if done := c.Run(0, time.Millisecond); done != time.Millisecond {
		t.Fatalf("run gated by interrupt work: done = %v", done)
	}
	if c.Busy() != 3*time.Millisecond {
		t.Fatalf("busy = %v, want 3ms (both charges accounted)", c.Busy())
	}
	if c.Interrupt(0, 0) != 0 {
		t.Fatal("zero-demand interrupt advanced time")
	}
}

func TestCPUSpeedScaling(t *testing.T) {
	fast := NewCPU(2.0)
	slow := NewCPU(1.0)
	df := fast.Run(0, time.Millisecond)
	ds := slow.Run(0, time.Millisecond)
	if df*2 != ds {
		t.Fatalf("speed scaling: fast=%v slow=%v", df, ds)
	}
}

func TestPendingHorizon(t *testing.T) {
	var p Pending
	p.Add(5 * time.Second)
	p.Add(2 * time.Second)
	if p.Horizon() != 5*time.Second {
		t.Fatalf("horizon=%v", p.Horizon())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
}
