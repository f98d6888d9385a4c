package sim

import "time"

// Pending tracks asynchronous background work (journal commits, write-behind
// flushes) by completion time, so a testbed can Drain() to quiescence: the
// virtual-time analogue of waiting for dirty data to reach stable storage.
type Pending struct {
	horizon time.Duration
}

// Add records an asynchronous completion at time t.
func (p *Pending) Add(t time.Duration) {
	if t > p.horizon {
		p.horizon = t
	}
}

// Horizon reports the latest known asynchronous completion time; a caller
// draining at time now should advance to max(now, Horizon()).
func (p *Pending) Horizon() time.Duration { return p.horizon }
