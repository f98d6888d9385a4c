package sim

import (
	"errors"
	"testing"
	"time"
)

// refScheduler is the pre-heap reference implementation: a linear scan
// picking the first-registered process among those with the earliest
// clock. The heap scheduler must reproduce its step order exactly — the
// property that keeps every existing 1..16-client sweep byte-identical.
type refScheduler struct {
	procs []*refProc
}

type refProc struct {
	clock *Clock
	step  func() (bool, error)
	done  bool
}

func (s *refScheduler) spawn(c *Clock, step func() (bool, error)) {
	s.procs = append(s.procs, &refProc{clock: c, step: step})
}

func (s *refScheduler) next() *refProc {
	var best *refProc
	for _, p := range s.procs {
		if p.done {
			continue
		}
		if best == nil || p.clock.Now() < best.clock.Now() {
			best = p
		}
	}
	return best
}

func (s *refScheduler) run() error {
	for {
		p := s.next()
		if p == nil {
			return nil
		}
		cont, err := p.step()
		if err != nil {
			p.done = true
			return err
		}
		if !cont {
			p.done = true
		}
	}
}

// randWorkload builds one deterministic pseudo-random workload: proc i
// advances its clock by a seeded random duration each step (including
// occasional zero advances, which force tie-breaking) and runs a seeded
// random number of steps.
type randWorkload struct {
	advances [][]time.Duration
}

func makeRandWorkload(seed int64, procs, maxSteps int) randWorkload {
	rng := NewRNG(seed)
	w := randWorkload{advances: make([][]time.Duration, procs)}
	for i := range w.advances {
		steps := 1 + rng.Intn(maxSteps)
		adv := make([]time.Duration, steps)
		for j := range adv {
			if rng.Intn(4) == 0 {
				adv[j] = 0 // zero advance: the next pick is a pure tie-break
			} else {
				adv[j] = time.Duration(rng.Intn(5000)) * time.Microsecond
			}
		}
		w.advances[i] = adv
	}
	return w
}

// driver returns a step function for proc i that records (proc, step)
// pairs into order.
func (w randWorkload) driver(i int, c *Clock, order *[]int) func() (bool, error) {
	n := 0
	return func() (bool, error) {
		*order = append(*order, i)
		c.Advance(w.advances[i][n])
		n++
		return n < len(w.advances[i]), nil
	}
}

// TestSchedulerMatchesReferenceLinearScan drives many randomized clock
// workloads through both the heap scheduler and the reference linear scan
// and requires identical step orders, including all tie-breaks.
func TestSchedulerMatchesReferenceLinearScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		procs := 1 + int(seed%13)
		w := makeRandWorkload(seed, procs, 40)

		var heapOrder []int
		hs := NewScheduler()
		for i := 0; i < procs; i++ {
			c := NewClock()
			hs.Spawn(c, w.driver(i, c, &heapOrder))
		}
		if err := hs.Run(); err != nil {
			t.Fatal(err)
		}

		var refOrder []int
		rs := &refScheduler{}
		for i := 0; i < procs; i++ {
			c := NewClock()
			rs.spawn(c, w.driver(i, c, &refOrder))
		}
		if err := rs.run(); err != nil {
			t.Fatal(err)
		}

		if len(heapOrder) != len(refOrder) {
			t.Fatalf("seed %d: heap took %d steps, reference %d", seed, len(heapOrder), len(refOrder))
		}
		for j := range heapOrder {
			if heapOrder[j] != refOrder[j] {
				t.Fatalf("seed %d: step %d diverged: heap picked proc %d, reference proc %d",
					seed, j, heapOrder[j], refOrder[j])
			}
		}
	}
}

// TestSchedulerEquivalenceWithErrors checks the two implementations agree
// when a process fails mid-run: the same prefix of steps executes and the
// same error surfaces.
func TestSchedulerEquivalenceWithErrors(t *testing.T) {
	boom := errors.New("boom")
	build := func(spawn func(*Clock, func() (bool, error)), order *[]int) {
		for i := 0; i < 6; i++ {
			i := i
			c := NewClock()
			n := 0
			spawn(c, func() (bool, error) {
				*order = append(*order, i)
				c.Advance(time.Duration(i+1) * time.Millisecond)
				n++
				if i == 3 && n == 2 {
					return false, boom
				}
				return n < 5, nil
			})
		}
	}

	var heapOrder []int
	hs := NewScheduler()
	build(func(c *Clock, f func() (bool, error)) { hs.Spawn(c, f) }, &heapOrder)
	herr := hs.Run()
	// Drive the survivors to completion, mirroring the reference loop.
	for {
		more, err := hs.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}

	var refOrder []int
	rs := &refScheduler{}
	build(rs.spawn, &refOrder)
	rerr := rs.run()
	for {
		p := rs.next()
		if p == nil {
			break
		}
		cont, err := p.step()
		if err != nil {
			t.Fatal(err)
		}
		if !cont {
			p.done = true
		}
	}

	if !errors.Is(herr, boom) || !errors.Is(rerr, boom) {
		t.Fatalf("errors: heap=%v reference=%v", herr, rerr)
	}
	if len(heapOrder) != len(refOrder) {
		t.Fatalf("heap took %d steps, reference %d", len(heapOrder), len(refOrder))
	}
	for j := range heapOrder {
		if heapOrder[j] != refOrder[j] {
			t.Fatalf("step %d diverged: heap %d, reference %d", j, heapOrder[j], refOrder[j])
		}
	}
}

// TestSchedulerStepAllocs requires the steady-state scheduling step to be
// allocation-free: at fleet scale the hot path runs millions of times.
func TestSchedulerStepAllocs(t *testing.T) {
	s := NewScheduler()
	const procs = 512
	for i := 0; i < procs; i++ {
		c := NewClock()
		d := time.Duration(i%7+1) * time.Millisecond
		s.Spawn(c, func() (bool, error) {
			c.Advance(d)
			return true, nil // never finishes; the alloc probe bounds steps
		})
	}
	avg := testing.AllocsPerRun(10000, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Scheduler.Step allocates %.2f objects per step, want 0", avg)
	}
	avgH := testing.AllocsPerRun(100, func() { s.horizon() })
	if avgH != 0 {
		t.Fatalf("Scheduler.Horizon allocates %.2f objects per call, want 0", avgH)
	}
	avgA := testing.AllocsPerRun(100, func() { s.align() })
	if avgA != 0 {
		t.Fatalf("Scheduler.Align allocates %.2f objects per call, want 0", avgA)
	}
}

// benchScheduler measures steady-state per-step cost at a given fleet
// size: every proc stays live and advances by a proc-dependent stride, so
// the heap is continuously re-keyed (the worst realistic case).
func benchScheduler(b *testing.B, procs int) {
	s := NewScheduler()
	for i := 0; i < procs; i++ {
		c := NewClock()
		d := time.Duration(i%97+1) * time.Microsecond
		s.Spawn(c, func() (bool, error) {
			c.Advance(d)
			return true, nil
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduler proves the O(log N) step claim: per-step cost must
// grow sub-linearly from 16 to 10,000 procs with zero allocations.
func BenchmarkScheduler(b *testing.B) {
	b.Run("procs=16", func(b *testing.B) { benchScheduler(b, 16) })
	b.Run("procs=256", func(b *testing.B) { benchScheduler(b, 256) })
	b.Run("procs=10000", func(b *testing.B) { benchScheduler(b, 10000) })
}
