package tcpsim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// refTransfer steps a Transfer with the slice-based window round the
// package used before the round moved to the connection's scratch: a fresh
// segment-size slice per flight, a fresh arrival slice per round, and a map
// of lost segments during recovery. Its Step, flightSizes and recoverRound
// are kept verbatim; cleanRound, growWindow and finish are the Transfer's.
type refTransfer struct{ Transfer }

// flightSizes returns the segment payload sizes for the next flight under
// the current window, honouring Nagle's algorithm: a sub-MSS tail is held
// back while full segments are in flight (it ships alone in the following
// round), unless Nagle is disabled.
func (t *refTransfer) flightSizes() []int {
	mss := t.c.cfg.MSS
	wnd := t.c.windowSegs(t.h)
	full := t.remaining / mss
	tail := t.remaining % mss
	n := full
	if n > wnd {
		n = wnd
	}
	sizes := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		sizes = append(sizes, mss)
	}
	if tail > 0 && n == full && n < wnd {
		// Window and data leave room for the tail this round.
		if n == 0 || t.c.cfg.DisableNagle {
			sizes = append(sizes, tail)
		}
	}
	return sizes
}

// Step simulates one window round.
func (t *refTransfer) Step() {
	if t.done {
		return
	}
	c := t.c
	sizes := t.flightSizes()
	flightBytes := 0
	for _, s := range sizes {
		flightBytes += s
	}

	// The flight's segments serialize behind one another at link
	// bandwidth; loss injection decides each segment's fate.
	sendAt := t.next
	arr := make([]time.Duration, len(sizes))
	var lost []int
	cursor := sendAt
	for i, sz := range sizes {
		sent, a, ok := c.net.SendSegment(cursor, sz, t.dir)
		cursor = sent
		c.stats.Segments++
		arr[i] = a
		if !ok {
			lost = append(lost, i)
		}
	}

	if len(lost) == 0 {
		t.cleanRound(sendAt, arr, flightBytes)
		return
	}
	t.recoverRound(sendAt, arr, sizes, lost, flightBytes)
}

// recoverRound handles a flight with losses: fast retransmit when enough
// later segments survive to generate triple duplicate ACKs, otherwise a
// retransmission timeout; lost retransmissions escalate through backed-off
// RTOs until maxRetries kills the connection.
func (t *refTransfer) recoverRound(sendAt time.Duration, arr []time.Duration, sizes, lost []int, flightBytes int) {
	c, h := t.c, t.h
	first := lost[0]
	flightSegs := len(sizes)

	// Survivors after the first hole each trigger an immediate duplicate
	// ACK at the receiver (delayed ACKs are suppressed on out-of-order
	// arrival).
	isLost := make(map[int]bool, len(lost))
	for _, i := range lost {
		isLost[i] = true
	}
	var dupArr []time.Duration
	for i := first + 1; i < flightSegs; i++ {
		if !isLost[i] {
			a := c.net.SendControl(arr[i], 0, reverse(t.dir))
			c.stats.Acks++
			dupArr = append(dupArr, a)
		}
	}

	// Classic fast retransmit wants three duplicate ACKs. With more of
	// this transfer still to send, limited transmit (RFC 3042, in Linux
	// since 2.4) keeps new segments flowing on the first duplicates and
	// recovery stays at RTT scale; only tail losses with nothing behind
	// them must wait out the retransmission timer.
	fastOK := len(dupArr) >= 3 ||
		(len(dupArr) >= 1 && t.remaining > flightBytes)
	var recoverAt time.Duration
	if fastOK {
		trigger := dupArr[len(dupArr)-1]
		if len(dupArr) >= 3 {
			trigger = dupArr[2]
		}
		recoverAt = trigger
		c.stats.FastRetransmits++
		h.ssthresh = float64(flightSegs) / 2
		if h.ssthresh < 2 {
			h.ssthresh = 2
		}
		h.cwnd = h.ssthresh
	} else {
		// Too few duplicates: the retransmission timer fires.
		c.stats.Timeouts++
		recoverAt = sendAt + c.rto
		c.backoffRTO()
		h.ssthresh = float64(flightSegs) / 2
		if h.ssthresh < 2 {
			h.ssthresh = 2
		}
		h.cwnd = 1
	}

	// Retransmit every hole (SACK-style recovery); a lost retransmission
	// escalates to a backed-off timeout.
	retries := 0
	for len(lost) > 0 {
		if retries > maxRetries {
			c.broken = true
			c.stats.Failures++
			t.done, t.failed = true, true
			t.delivered = recoverAt
			return
		}
		var still []int
		var lastArr time.Duration
		cursor := recoverAt
		for _, i := range lost {
			sent, a, ok := c.net.SendSegment(cursor, sizes[i], t.dir)
			cursor = sent
			c.stats.Segments++
			c.stats.Retransmits++
			if !ok {
				still = append(still, i)
			}
			if a > lastArr {
				lastArr = a
			}
		}
		if len(still) == 0 {
			// Recovery ACK covers the whole flight.
			ackArr := c.net.SendControl(lastArr, 0, reverse(t.dir))
			c.stats.Acks++
			t.remaining -= flightBytes
			// In-order delivery: bytes past the hole become available
			// only when the hole fills.
			t.delivered = lastArr
			if last := arr[flightSegs-1]; last > t.delivered {
				t.delivered = last
			}
			t.next = ackArr
			if t.remaining <= 0 {
				t.finish()
			}
			return
		}
		c.stats.Timeouts++
		recoverAt += c.rto
		c.backoffRTO()
		h.cwnd = 1
		lost = still
		retries++
	}
}

// stepper is what the scenario below steps: a *Transfer or a *refTransfer.
type stepper interface {
	Step()
	Done() bool
	Failed() bool
	NextAt() time.Duration
	Delivered() time.Duration
}

// observation is what one step (or one start) of one lane showed.
type observation struct {
	lane            int
	next, delivered time.Duration
	done, failed    bool
}

// scenario is one link carrying conns connections, each running sizes
// back to back (lane k from sizes[k] on, wrapping), directions alternating.
type scenario struct {
	cfg   Config
	loss  float64
	rtt   time.Duration
	seed  int64
	conns int
	sizes []int
}

// run plays s with start beginning every transfer, always stepping the
// lane with the earliest NextAt (the lowest lane on a tie), and returns
// every observation and each connection.
func (s scenario) run(start func(c *Conn, at time.Duration, size int, d simnet.Direction) stepper) ([]observation, []*Conn) {
	net := wan(s.rtt, s.loss, s.seed)
	type lane struct {
		c    *Conn
		x    stepper
		at   time.Duration
		sent int
	}
	lanes := make([]lane, s.conns)
	conns := make([]*Conn, s.conns)
	for k := range lanes {
		c := NewConn(net, s.cfg)
		at, _ := c.Connect(time.Duration(k) * time.Millisecond)
		lanes[k], conns[k] = lane{c: c, at: at}, c
	}
	var obs []observation
	see := func(k int, x stepper) {
		obs = append(obs, observation{k, x.NextAt(), x.Delivered(), x.Done(), x.Failed()})
	}
	for {
		best := -1
		for k := range lanes {
			l := &lanes[k]
			for l.x == nil && l.sent < len(s.sizes) {
				d := simnet.Direction(l.sent % 2)
				l.x = start(l.c, l.at, s.sizes[(k+l.sent)%len(s.sizes)], d)
				l.sent++
				if see(k, l.x); l.x.Done() {
					l.at, l.x = max(l.at, l.x.Delivered()), nil
				}
			}
			if l.x != nil && (best < 0 || l.x.NextAt() < lanes[best].x.NextAt()) {
				best = k
			}
		}
		if best < 0 {
			return obs, conns
		}
		l := &lanes[best]
		l.x.Step()
		if see(best, l.x); l.x.Done() {
			l.at, l.x = l.x.Delivered(), nil
		}
	}
}

func startTransfer(c *Conn, at time.Duration, size int, d simnet.Direction) stepper {
	x := c.StartTransfer(at, size, d)
	return &x
}

func startReference(c *Conn, at time.Duration, size int, d simnet.Direction) stepper {
	return &refTransfer{c.StartTransfer(at, size, d)}
}

// FuzzTransferMatchesReference plays random links, connection settings and
// runs of transfers (empty, sub-MSS and many windows long) on 1 to 4
// connections sharing the link, and holds every NextAt, Delivered, Done and
// Failed, and each connection's Stats, to the slice-based reference. The
// same scenario runs twice at once on separate links, because independent
// simulations run on separate goroutines, and no two connections may share
// their scratch.
func FuzzTransferMatchesReference(f *testing.F) {
	f.Add(uint16(1448), uint32(64<<10), uint8(3), false, false, uint8(0), int64(1), uint8(1), []byte{1, 2, 5, 8})
	f.Add(uint16(1448), uint32(64<<10), uint8(3), true, true, uint8(3), int64(7), uint8(4), []byte{0, 4, 7, 11, 2})
	f.Add(uint16(536), uint32(8<<10), uint8(1), false, true, uint8(12), int64(3), uint8(2), []byte{10, 1, 13, 0, 22})
	f.Add(uint16(9000), uint32(1<<20), uint8(10), true, false, uint8(40), int64(11), uint8(3), []byte{26, 29, 4})
	f.Fuzz(func(t *testing.T, mss uint16, window uint32, initCwnd uint8, noDelAck, noNagle bool,
		loss uint8, seed int64, conns uint8, run []byte) {
		if len(run) == 0 || len(run) > 12 {
			return
		}
		s := scenario{
			cfg: Config{MSS: 64 + int(mss)%9000, WindowBytes: int(window % (256 << 10)), InitCwnd: int(initCwnd % 16),
				DisableDelAck: noDelAck, DisableNagle: noNagle},
			loss:  float64(loss%64) / 256,
			rtt:   time.Duration(1+uint64(seed)%80) * time.Millisecond,
			seed:  seed,
			conns: 1 + int(conns)%4,
		}
		filled := s.cfg
		filled.fill()
		for _, b := range run {
			switch b % 3 {
			case 0:
				s.sizes = append(s.sizes, 0)
			case 1:
				s.sizes = append(s.sizes, 1+int(b)*37%(filled.MSS-1))
			default:
				s.sizes = append(s.sizes, (1+int(b)/64)*filled.WindowBytes+int(b)*13)
			}
		}
		want, wantConns := s.run(startReference)
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, gotConns := s.run(startTransfer)
				for i := range max(len(got), len(want)) {
					if i >= len(got) || i >= len(want) || got[i] != want[i] {
						t.Errorf("%+v: observation %d of %d/%d differs", s, i, len(got), len(want))
						return
					}
				}
				for k, c := range gotConns {
					if c.Stats() != wantConns[k].Stats() {
						t.Errorf("%+v: conn %d stats %+v, reference %+v", s, k, c.Stats(), wantConns[k].Stats())
					}
					for _, o := range gotConns[:k] {
						if sharesScratch(c, o) {
							t.Errorf("%+v: connections %d and another share their scratch", s, k)
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// sharesScratch reports whether two connections' round scratch overlaps.
func sharesScratch(a, b *Conn) bool {
	same := func(x, y []time.Duration) bool { return cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0] }
	sameInt := func(x, y []int) bool { return cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0] }
	return same(a.arr, b.arr) || same(a.dup, b.dup) || sameInt(a.lost, b.lost) || sameInt(a.still, b.still)
}

// A warm connection runs whole transfers, clean or lossy, without a heap
// allocation: the Transfer is a value and the round scratch is reused.
func TestTransferAllocatesNothingWhenWarm(t *testing.T) {
	for _, loss := range []float64{0, 0.01} {
		c, at := connect(t, wan(time.Millisecond, loss, 5), Config{})
		move := func() {
			var ok bool
			if at, ok = c.Transfer(at, 64<<10, simnet.ClientToServer); !ok {
				t.Fatalf("loss %v: transfer failed", loss)
			}
		}
		for range 200 {
			move()
		}
		if n := testing.AllocsPerRun(200, move); n != 0 {
			t.Errorf("loss %v: %v allocations per 64 KB transfer, want 0", loss, n)
		}
		if loss > 0 && c.Stats().Retransmits == 0 {
			t.Errorf("loss %v: no retransmission exercised the loss path", loss)
		}
	}
}
