package sim

import "time"

// Proc is one interleaved timeline in a multi-driver simulation: a Clock of
// its own plus a step function that issues the next operation at the
// clock's current time and advances it to the completion. A single-client
// simulation is the degenerate case of one Proc driven to completion.
type Proc struct {
	clock *Clock
	step  func() (more bool, err error)
	done  bool
	steps int64
	err   error
	seq   int // registration order (heap tie-break)
	idx   int // position in the scheduler's live heap, -1 once done
}

// Scheduler coordinates multiple processes, each on its own Clock, over
// shared busy-until resources. At every tick it steps the process whose
// clock is earliest (ties broken by registration order), so operations
// from concurrent drivers reach shared Resources in global virtual-time
// order and the whole interleaving is deterministic run-to-run.
//
// Correct contention comes from the Resource busy-until semantics; the
// scheduler's only job is to interleave the *drivers* so that no process
// can issue an operation "in the past" of a slower peer.
//
// Live processes sit in an indexed min-heap keyed by (clock, registration
// order), so selecting and re-positioning the earliest process costs
// O(log N) per step instead of the former O(N) scan — the difference
// between 16 and 10,000 interleaved clients being practical. A step only
// ever moves its process's clock forward, so the post-step fix-up is a
// single sift-down from the root rather than a full re-selection, and no
// step allocates.
type Scheduler struct {
	procs []*Proc // registration order (stable identity, Horizon/Align)
	heap  []*Proc // live procs, min-heap on (clock.Now(), seq)
}

// NewScheduler returns an empty scheduler.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Spawn registers a process with its own clock and step function. The step
// function performs one operation starting at clock.Now(), advances the
// clock to its completion, and returns more=false when the driver has no
// further work (that final call may still have performed work).
func (s *Scheduler) Spawn(clock *Clock, step func() (more bool, err error)) *Proc {
	p := &Proc{clock: clock, step: step, seq: len(s.procs), idx: len(s.heap)}
	s.procs = append(s.procs, p)
	s.heap = append(s.heap, p)
	s.up(p.idx)
	return p
}

// less orders the live heap: earliest clock first, registration order on
// ties — exactly the process the reference linear scan would pick.
func (s *Scheduler) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if an, bn := a.clock.now, b.clock.now; an != bn {
		return an < bn
	}
	return a.seq < b.seq
}

// swap exchanges two heap slots, maintaining the back-indices.
func (s *Scheduler) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx = i
	s.heap[j].idx = j
}

// up sifts the process at slot i toward the root.
func (s *Scheduler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

// down sifts the process at slot i toward the leaves.
func (s *Scheduler) down(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && s.less(r, l) {
			min = r
		}
		if !s.less(min, i) {
			return
		}
		s.swap(i, min)
		i = min
	}
}

// remove pops the process at slot i out of the live heap.
func (s *Scheduler) remove(i int) {
	last := len(s.heap) - 1
	s.heap[i].idx = -1
	if i != last {
		s.heap[i] = s.heap[last]
		s.heap[i].idx = i
	}
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if i < last {
		s.down(i)
		s.up(i)
	}
}

// next returns the earliest-clock live process, or nil when all are done.
func (s *Scheduler) next() *Proc {
	if len(s.heap) == 0 {
		return nil
	}
	return s.heap[0]
}

// Step executes one step of the earliest live process. It reports whether
// any live process remains afterwards. A step error marks its process done
// and is returned immediately.
func (s *Scheduler) Step() (more bool, err error) {
	p := s.next()
	if p == nil {
		return false, nil
	}
	cont, err := p.step()
	p.steps++
	if err != nil {
		p.done = true
		p.err = err
		s.remove(p.idx)
		return len(s.heap) > 0, err
	}
	if !cont {
		p.done = true
		s.remove(p.idx)
	} else {
		// The step only advanced p's clock, so re-keying the root is a
		// single sift-down — no re-selection, no allocation.
		s.down(p.idx)
	}
	return len(s.heap) > 0, nil
}

// Run interleaves all processes to completion, stopping at the first error.
func (s *Scheduler) Run() error {
	for {
		more, err := s.Step()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// Live reports how many processes are still runnable. A long-lived monitor
// process (the health scraper) uses it as its termination condition: when
// it is the only live process left, nothing can generate further work and
// it should retire instead of scraping an idle cluster forever.
func (s *Scheduler) Live() int { return len(s.heap) }

// horizon reports the latest clock across all registered processes: the
// wall-clock analogue of "when the last client finished". It iterates the
// processes directly rather than materializing a clock slice, so polling
// it over a 10,000-proc fleet allocates nothing.
func (s *Scheduler) horizon() time.Duration {
	var h time.Duration
	for _, p := range s.procs {
		if t := p.clock.now; t > h {
			h = t
		}
	}
	return h
}

// align advances every process clock to the scheduler horizon (a barrier:
// the point where a cluster-wide measurement window can close) and returns
// that time. Like Horizon it allocates nothing.
func (s *Scheduler) align() time.Duration {
	h := s.horizon()
	for _, p := range s.procs {
		p.clock.AdvanceTo(h)
	}
	return h
}
