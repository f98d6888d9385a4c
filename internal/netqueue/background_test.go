package netqueue

import (
	"testing"
	"time"
)

// TestLinkBackgroundResidualRate verifies fluid background load slows
// mechanistic serialization to the residual capacity, per direction, while
// the drop-tail buffer keeps acting on mechanistic bytes only.
func TestLinkBackgroundResidualRate(t *testing.T) {
	l := New(Config{Bandwidth: 1 << 20, QueueBytes: 64 << 10})
	ep := l.Endpoint()

	sent, ok := ep.Send(0, 1<<20, Up)
	if !ok || sent != time.Second {
		t.Fatalf("full-rate send = %v ok=%v, want 1s", sent, ok)
	}
	if err := l.SetBackground(1<<19, 0); err != nil {
		t.Fatal(err)
	}
	up, down := l.background()
	if up != 1<<19 || down != 0 {
		t.Fatalf("Background() = %d/%d", up, down)
	}
	start := 2 * time.Second
	sent, ok = ep.Send(start, 1<<20, Up)
	if !ok || sent != start+2*time.Second {
		t.Fatalf("half-rate up send = %v ok=%v, want %v", sent, ok, start+2*time.Second)
	}
	// Down direction carries no background and still runs at full rate.
	sent, ok = ep.Send(start, 1<<20, Down)
	if !ok || sent != start+time.Second {
		t.Fatalf("down send = %v ok=%v, want %v", sent, ok, start+time.Second)
	}
}

// TestLinkBackgroundSaturationRejected verifies a fluid load at or beyond
// pipe capacity is rejected rather than dividing by zero residual.
func TestLinkBackgroundSaturationRejected(t *testing.T) {
	l := New(Config{Bandwidth: 1 << 20})
	if err := l.SetBackground(1<<20, 0); err == nil {
		t.Fatal("saturating background load accepted")
	}
	if err := l.SetBackground(0, -1); err == nil {
		t.Fatal("negative background load accepted")
	}
}
