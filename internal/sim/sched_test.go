package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestSchedulerInterleavesByClock drives two processes over one shared
// resource: the scheduler must always step the earlier clock, so the
// acquisition order is a perfect merge of the two timelines.
func TestSchedulerInterleavesByClock(t *testing.T) {
	var shared Resource
	var order []string
	s := NewScheduler()
	mk := func(name string, service time.Duration, n int) *Clock {
		c := NewClock()
		i := 0
		s.Spawn(c, func() (bool, error) {
			order = append(order, fmt.Sprintf("%s@%v", name, c.Now()))
			c.AdvanceTo(shared.Acquire(c.Now(), service))
			i++
			return i < n, nil
		})
		return c
	}
	fast := mk("fast", 1*time.Millisecond, 4)
	slow := mk("slow", 3*time.Millisecond, 2)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Both start at 0; registration order breaks the tie, then the merge
	// follows the clocks.
	want := []string{"fast@0s", "slow@0s", "fast@1ms", "slow@4ms", "fast@5ms", "fast@9ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("interleaving = %v, want %v", order, want)
	}
	// Shared resource serialized everything: total busy = 4*1ms + 2*3ms.
	if shared.Busy() != 10*time.Millisecond {
		t.Fatalf("shared busy = %v", shared.Busy())
	}
	if h := s.horizon(); h != 10*time.Millisecond {
		t.Fatalf("horizon = %v", h)
	}
	if a := s.align(); a != 10*time.Millisecond || fast.Now() != a || slow.Now() != a {
		t.Fatalf("align: %v fast=%v slow=%v", a, fast.Now(), slow.Now())
	}
}

// TestSchedulerDeterministic runs the same contended workload twice and
// requires identical completion times.
func TestSchedulerDeterministic(t *testing.T) {
	run := func() time.Duration {
		var cpu Resource
		s := NewScheduler()
		rng := NewRNG(7)
		for i := 0; i < 5; i++ {
			c := NewClock()
			n := 0
			s.Spawn(c, func() (bool, error) {
				c.AdvanceTo(cpu.Acquire(c.Now(), time.Duration(rng.Intn(1000))*time.Microsecond))
				n++
				return n < 20, nil
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.horizon()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic schedule: %v vs %v", a, b)
	}
}

// TestSchedulerErrorStopsProc verifies a failing step terminates only its
// own process and surfaces the error.
func TestSchedulerErrorStopsProc(t *testing.T) {
	s := NewScheduler()
	boom := errors.New("boom")
	bad := s.Spawn(NewClock(), func() (bool, error) { return false, boom })
	okC := NewClock()
	n := 0
	ok := s.Spawn(okC, func() (bool, error) {
		okC.Advance(time.Millisecond)
		n++
		return n < 3, nil
	})
	if err := s.Run(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !bad.done || bad.err != boom {
		t.Fatal("failed proc not marked done with error")
	}
	// The healthy process can still be driven to completion.
	for {
		more, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if !ok.done || ok.steps != 3 {
		t.Fatalf("surviving proc: done=%v steps=%d", ok.done, ok.steps)
	}
}
