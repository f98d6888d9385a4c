package netqueue

import (
	"fmt"
	"testing"
	"time"
)

// mbps builds a link with bandwidth in whole MB/s (1e6 bytes).
func testLink(bwBytes int64, queueBytes int, q Discipline) *Link {
	return New(Config{Bandwidth: bwBytes, QueueBytes: queueBytes, Discipline: q})
}

// driveBacklogged keeps n endpoints continuously backlogged: each sends
// its next frame the moment its previous one departs, always stepping
// the endpoint with the earliest clock (the scheduler's virtual-time
// order). Returns the per-endpoint delivered bytes and the last
// departure time.
func driveBacklogged(l *Link, n, frameBytes, frames int) ([]int64, time.Duration) {
	eps := make([]*Endpoint, n)
	next := make([]time.Duration, n)
	left := make([]int, n)
	got := make([]int64, n)
	for i := range eps {
		eps[i] = l.Endpoint()
		left[i] = frames
	}
	var last time.Duration
	for {
		// Earliest-clock endpoint with frames left sends next.
		sel := -1
		for i := range eps {
			if left[i] == 0 {
				continue
			}
			if sel < 0 || next[i] < next[sel] {
				sel = i
			}
		}
		if sel < 0 {
			return got, last
		}
		sent, ok := eps[sel].Send(next[sel], frameBytes, Up)
		left[sel]--
		if ok {
			got[sel] += int64(frameBytes)
			next[sel] = sent
			if sent > last {
				last = sent
			}
		}
	}
}

// TestWorkConservation: with every endpoint continuously backlogged, the
// pipe must run at capacity under both disciplines — total delivered
// bytes over the busy period equals bandwidth within 2%.
func TestWorkConservation(t *testing.T) {
	const bw = 10_000_000 // 10 MB/s
	for _, q := range []Discipline{DropTail, DRR} {
		for _, n := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s-%d", q, n), func(t *testing.T) {
				l := testLink(bw, 1<<30, q) // queue large enough to never drop
				got, last := driveBacklogged(l, n, 1500, 400)
				var total int64
				for _, g := range got {
					total += g
				}
				rate := float64(total) / last.Seconds()
				if rate < 0.98*bw || rate > 1.02*bw {
					t.Fatalf("aggregate rate %.0f B/s, want ~%d (conservation violated)", rate, bw)
				}
			})
		}
	}
}

// TestFIFOOrdering: under DropTail, departures exactly fold the classic
// FIFO recurrence dep_i = max(t_i, dep_{i-1}) + ser_i when frames are
// presented in time order, regardless of which endpoint sends.
func TestFIFOOrdering(t *testing.T) {
	const bw = 1_000_000
	l := testLink(bw, 1<<30, DropTail)
	a := l.Endpoint()
	b := l.Endpoint()
	arrivals := []struct {
		ep   *Endpoint
		at   time.Duration
		size int
	}{
		{a, 0, 4000},
		{b, time.Millisecond, 1000},
		{a, 2 * time.Millisecond, 2000},
		{b, 100 * time.Millisecond, 500}, // idle gap
		{a, 100 * time.Millisecond, 500},
	}
	var prev time.Duration
	for i, f := range arrivals {
		want := f.at
		if prev > want {
			want = prev
		}
		want += time.Duration(int64(f.size) * int64(time.Second) / bw)
		sent, ok := f.ep.Send(f.at, f.size, Up)
		if !ok {
			t.Fatalf("frame %d dropped unexpectedly", i)
		}
		if sent != want {
			t.Fatalf("frame %d departed %v, want FIFO fold %v", i, sent, want)
		}
		prev = sent
	}
}

// TestDRRFairness: two continuously backlogged endpoints with different
// frame sizes each get half the pipe (within 5%), and a sparse light
// flow sharing the pipe with a heavy blaster sees per-frame latency
// bounded by its fair share, not the blaster's backlog.
func TestDRRFairness(t *testing.T) {
	const bw = 10_000_000
	l := testLink(bw, 1<<30, DRR)
	got, last := driveBacklogged(l, 2, 1500, 500)
	half := float64(bw) / 2 * last.Seconds()
	for i, g := range got {
		if float64(g) < 0.95*half || float64(g) > 1.05*half {
			t.Fatalf("endpoint %d got %d bytes, want ~%.0f (fair half)", i, g, half)
		}
	}

	// Light flow vs. heavy backlog: under FIFO the light frame waits out
	// the whole queue; under DRR it waits at most ~2x its serialization.
	for _, q := range []Discipline{DropTail, DRR} {
		l := testLink(bw, 1<<30, q)
		heavy := l.Endpoint()
		light := l.Endpoint()
		cursor := time.Duration(0)
		for i := 0; i < 100; i++ { // ~15 ms of backlog
			cursor, _ = heavy.Send(cursor, 1500, Up)
		}
		sent, _ := light.Send(time.Millisecond, 1500, Up)
		lat := sent - time.Millisecond
		ser := time.Duration(1500 * int64(time.Second) / bw)
		if q == DRR && lat > 4*ser {
			t.Fatalf("DRR light-flow latency %v, want <= %v (fair share)", lat, 4*ser)
		}
		if q == DropTail && lat < 10*ser {
			t.Fatalf("FIFO light-flow latency %v unexpectedly small (premise broken)", lat)
		}
	}
}

// TestDropAccounting: offered bytes must split byte-exactly into
// accepted (Stats.Bytes) plus dropped (Stats.DropBytes), and the
// high-water depth never exceeds queue bound + one frame.
func TestDropAccounting(t *testing.T) {
	const bw = 1_000_000
	const qb = 8000
	for _, q := range []Discipline{DropTail, DRR} {
		l := testLink(bw, qb, q)
		ep := l.Endpoint()
		var offered, delivered int64
		cursor := time.Duration(0)
		for i := 0; i < 200; i++ {
			size := 1000 + (i%7)*100
			offered += int64(size)
			_, ok := ep.Send(cursor, size, Up)
			if ok {
				delivered += int64(size)
			}
			cursor += 200 * time.Microsecond // offered load ~5x capacity
		}
		s := l.Stats().Up
		if s.Bytes != delivered {
			t.Fatalf("%s: accepted bytes %d, want %d", q, s.Bytes, delivered)
		}
		if s.Bytes+s.DropBytes != offered {
			t.Fatalf("%s: accepted %d + dropped %d != offered %d",
				q, s.Bytes, s.DropBytes, offered)
		}
		if s.QueueDrops == 0 {
			t.Fatalf("%s: overload produced no drops (premise broken)", q)
		}
		if s.MaxDepthBytes > qb+1600 {
			t.Fatalf("%s: high-water depth %d exceeds bound %d + one frame",
				q, s.MaxDepthBytes, qb)
		}
	}
}

// TestOversizedFrameOnIdleLink: a frame larger than the whole buffer
// must still transmit when the queue is empty (drop-tail rejects only
// arrivals that find backlog), or large datagrams could never leave.
func TestOversizedFrameOnIdleLink(t *testing.T) {
	l := testLink(1_000_000, 4000, DropTail)
	ep := l.Endpoint()
	if _, ok := ep.Send(0, 8192, Up); !ok {
		t.Fatal("oversized frame dropped on an idle link")
	}
	if _, ok := ep.Send(0, 8192, Up); ok {
		t.Fatal("second oversized frame accepted over a full backlog")
	}
}

// TestRearmDepth: the windowed high-water restarts at RearmDepth while
// the monotonic stats counter keeps the lifetime peak.
func TestRearmDepth(t *testing.T) {
	l := testLink(1_000_000, 1<<20, DropTail)
	ep := l.Endpoint()
	ep.Send(0, 4000, Up)
	ep.Send(0, 4000, Up) // 8000 deep
	if got := l.DepthHighWater(); got != 8000 {
		t.Fatalf("pre-rearm high-water %d, want 8000", got)
	}
	l.RearmDepth()
	if got := l.DepthHighWater(); got != 0 {
		t.Fatalf("rearmed high-water %d, want 0", got)
	}
	ep.Send(20*time.Millisecond, 1000, Up) // idle link again: depth 1000
	if got := l.DepthHighWater(); got != 1000 {
		t.Fatalf("windowed high-water %d, want 1000", got)
	}
	if got := l.Stats().Up.MaxDepthBytes; got != 8000 {
		t.Fatalf("monotonic high-water %d, want lifetime 8000", got)
	}
}

// TestDeterminism: identical call sequences give identical timelines and
// counters.
func TestDeterminism(t *testing.T) {
	run := func() (Stats, time.Duration) {
		l := testLink(5_000_000, 32<<10, DRR)
		a := l.Endpoint()
		b := l.Endpoint()
		var last time.Duration
		ca, cb := time.Duration(0), time.Duration(0)
		for i := 0; i < 300; i++ {
			if i%2 == 0 {
				s, _ := a.Send(ca, 1500, Up)
				ca = s
			} else {
				s, _ := b.Send(cb, 700, Up)
				cb = s
			}
			if ca > last {
				last = ca
			}
			if cb > last {
				last = cb
			}
		}
		return l.Stats(), last
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 || l1 != l2 {
		t.Fatalf("runs diverged: %+v @%v vs %+v @%v", s1, l1, s2, l2)
	}
}

// TestPlateauAndQueueLatency is the subsystem-level acceptance check:
// as endpoint count grows, aggregate throughput stays pinned at the pipe
// (within 5%) while mean head-of-line wait per frame grows.
func TestPlateauAndQueueLatency(t *testing.T) {
	const bw = 10_000_000
	var prevWait time.Duration
	for _, n := range []int{1, 2, 4, 8} {
		l := testLink(bw, 1<<30, DropTail)
		got, last := driveBacklogged(l, n, 1500, 300)
		var total int64
		for _, g := range got {
			total += g
		}
		rate := float64(total) / last.Seconds()
		if rate < 0.95*bw || rate > 1.05*bw {
			t.Fatalf("n=%d: aggregate %.0f B/s, want within 5%% of %d", n, rate, bw)
		}
		s := l.Stats().Up
		wait := s.HOLWait / time.Duration(s.Frames)
		if n > 1 && wait <= prevWait {
			t.Fatalf("n=%d: mean HOL wait %v did not grow past %v", n, wait, prevWait)
		}
		prevWait = wait
	}
}
