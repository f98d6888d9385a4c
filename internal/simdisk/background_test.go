package simdisk

import (
	"testing"
	"time"
)

// TestDiskBackgroundStretch verifies fluid background load stretches a
// drive's service to the residual rate without disturbing sequentiality
// tracking (the second I/O is still seek-free).
func TestDiskBackgroundStretch(t *testing.T) {
	p := Ultra160()
	base := newDisk(p)
	loaded := newDisk(p)
	loaded.SetBackground(0.5)

	d0, err := base.IO(0, 0, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := loaded.IO(0, 0, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * d0; d1 != want {
		t.Fatalf("loaded first I/O = %v, want %v (2x %v)", d1, want, d0)
	}
	// Sequential successor: both pay transfer-only service, stretched 2x.
	s0, err := base.IO(d0, 8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := loaded.IO(d1, 8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats().Seeks != 1 || loaded.Stats().Seeks != 1 {
		t.Fatalf("seeks = %d/%d, want 1/1 (background must not break sequentiality)",
			base.Stats().Seeks, loaded.Stats().Seeks)
	}
	if want := d1 + 2*(s0-d0); s1 != want {
		t.Fatalf("loaded sequential I/O done = %v, want %v", s1, want)
	}
}

// TestRAID5BackgroundSpreads verifies array-level background load reaches
// every member: a striped read completes at twice its unloaded time under
// rho = 0.5.
func TestRAID5BackgroundSpreads(t *testing.T) {
	base, loaded := NewRAID5(Ultra160()), NewRAID5(Ultra160())
	loaded.SetBackground(0.5)
	d0, err := base.Read(0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := loaded.Read(0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * d0; d1 != want {
		t.Fatalf("loaded striped read = %v, want %v", d1, want)
	}
	if loaded.Busy() != 2*base.Busy() {
		t.Fatalf("member busy = %v, want %v", loaded.Busy(), 2*base.Busy())
	}
	_ = time.Duration(0)
}
