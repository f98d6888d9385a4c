package tcpsim

import (
	"time"

	"repro/internal/simnet"
)

// Transfer is one in-progress byte-stream transfer in a single direction.
// Each Step simulates one window round: a flight of segments, its loss
// fate, and the ACK clock that releases the next flight. Sessions holding
// several connections interleave their transfers by always stepping the
// one with the earliest NextAt, so segments reach the shared link in
// virtual-time order. It is a value: the caller keeps what StartTransfer
// returns (a local, a field) and steps it in place.
type Transfer struct {
	c    *Conn
	h    *half
	dir  simnet.Direction
	size int

	remaining int           // bytes not yet cumulatively ACKed
	next      time.Duration // when the sender may transmit the next flight
	delivered time.Duration // arrival of the newest in-order byte
	done      bool
	failed    bool
}

// StartTransfer begins a transfer of size bytes in direction d. The first
// flight leaves once the direction's send window admits the bytes: earlier
// transfers' un-ACKed data pipelines ahead of it on the stream, so
// back-to-back messages overlap up to the window cap. The Transfer is a
// value the caller keeps and steps in place; it costs the heap nothing.
func (c *Conn) StartTransfer(start time.Duration, size int, d simnet.Direction) Transfer {
	h := c.sender(d)
	t := Transfer{c: c, h: h, dir: d, size: size, remaining: size, next: start, delivered: start}
	if c.broken || !c.established {
		t.done, t.failed = true, true
		c.stats.Failures++
		return t
	}
	if size <= 0 {
		t.done = true
		return t
	}
	t.next = c.admit(h, start, size)
	return t
}

// Done reports whether the transfer has finished (successfully or not).
func (t *Transfer) Done() bool { return t.done }

// Failed reports whether the transfer was abandoned (connection death).
func (t *Transfer) Failed() bool { return t.failed }

// NextAt is the virtual time of the transfer's next send event.
func (t *Transfer) NextAt() time.Duration { return t.next }

// Delivered is the arrival time of the newest in-order byte (the final
// completion time once Done).
func (t *Transfer) Delivered() time.Duration { return t.delivered }

// flight returns the next flight under the current window: n full
// segments, then a sub-MSS tail of tail bytes (0 when none ships). Nagle's
// algorithm holds a tail back while full segments are in flight (it ships
// alone in the following round), unless Nagle is disabled.
func (t *Transfer) flight() (n, tail int) {
	mss := t.c.cfg.MSS
	wnd := t.c.windowSegs(t.h)
	full, rest := t.remaining/mss, t.remaining%mss
	n = min(full, wnd)
	// Window and data must leave room for the tail this round.
	if rest > 0 && n == full && n < wnd && (n == 0 || t.c.cfg.DisableNagle) {
		tail = rest
	}
	return n, tail
}

// segSize is the payload of segment i of a flight of n full segments.
func (t *Transfer) segSize(i, n, tail int) int {
	if i < n {
		return t.c.cfg.MSS
	}
	return tail
}

// Step simulates one window round. Arrival times and losses go to the
// connection's scratch, which no round keeps past its return.
func (t *Transfer) Step() {
	if t.done {
		return
	}
	c := t.c
	n, tail := t.flight()
	segs, flightBytes := n, n*c.cfg.MSS+tail
	if tail > 0 {
		segs++
	}

	// The flight's segments serialize behind one another at link
	// bandwidth; loss injection decides each segment's fate.
	sendAt := t.next
	c.arr, c.lost = c.arr[:0], c.lost[:0]
	cursor := sendAt
	for i := range segs {
		sent, a, ok := c.net.SendSegment(cursor, t.segSize(i, n, tail), t.dir)
		cursor = sent
		c.stats.Segments++
		c.arr = append(c.arr, a)
		if !ok {
			c.lost = append(c.lost, i)
		}
	}

	if len(c.lost) == 0 {
		t.cleanRound(sendAt, c.arr, flightBytes)
		return
	}
	t.recoverRound(sendAt, n, tail, flightBytes)
}

// cleanRound handles a fully delivered flight: delayed-ACK generation,
// window growth, and the ACK clock.
func (t *Transfer) cleanRound(sendAt time.Duration, arr []time.Duration, flightBytes int) {
	c := t.c
	n := len(arr)
	last := arr[n-1]

	stride := 1
	if !c.cfg.DisableDelAck {
		stride = 2
	}
	acks := (n + stride - 1) / stride
	// Intermediate ACKs leave as their trigger segments arrive; the
	// cumulative final ACK governs the next flight. An odd tail with more
	// data outstanding waits out the delayed-ACK timer.
	delay := time.Duration(0)
	if stride == 2 && n%2 == 1 && t.remaining > flightBytes {
		delay = delAckDelay
	}
	var ackArr time.Duration
	for i := 0; i < acks; i++ {
		idx := (i+1)*stride - 1
		trigger := last + delay
		if idx < n-1 {
			trigger = arr[idx]
		}
		ackArr = c.net.SendControl(trigger, 0, reverse(t.dir))
		c.stats.Acks++
	}

	// Karn: exclude the delayed-ACK wait from the path sample.
	c.observeRTT(ackArr - delay - sendAt)
	t.growWindow(acks)

	t.remaining -= flightBytes
	t.delivered = last
	t.next = ackArr
	if t.remaining <= 0 {
		t.finish()
	}
}

// growWindow applies slow start below ssthresh and AIMD congestion
// avoidance above it, always capped by the configured window.
func (t *Transfer) growWindow(acks int) {
	h := t.h
	if h.cwnd < h.ssthresh {
		h.cwnd += float64(acks)
		if h.cwnd > h.ssthresh {
			h.cwnd = h.ssthresh
		}
	} else {
		h.cwnd += float64(acks) / h.cwnd
	}
	if cap := float64(t.c.cfg.WindowBytes / t.c.cfg.MSS); h.cwnd > cap {
		h.cwnd = cap
	}
}

// recoverRound handles a flight with losses: fast retransmit when enough
// later segments survive to generate triple duplicate ACKs, otherwise a
// retransmission timeout; lost retransmissions escalate through backed-off
// RTOs until maxRetries kills the connection.
func (t *Transfer) recoverRound(sendAt time.Duration, n, tail, flightBytes int) {
	c, h, arr := t.c, t.h, t.c.arr
	first := c.lost[0]
	flightSegs := len(arr)

	// Survivors after the first hole each trigger an immediate duplicate
	// ACK at the receiver (delayed ACKs are suppressed on out-of-order
	// arrival). lost is ascending, so one walk skips the holes.
	c.dup = c.dup[:0]
	for i, k := first+1, 1; i < flightSegs; i++ {
		if k < len(c.lost) && c.lost[k] == i {
			k++
			continue
		}
		c.dup = append(c.dup, c.net.SendControl(arr[i], 0, reverse(t.dir)))
		c.stats.Acks++
	}
	dupArr := c.dup

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
	for retries := 0; ; retries++ {
		if retries > maxRetries {
			c.broken = true
			c.stats.Failures++
			t.done, t.failed = true, true
			t.delivered = recoverAt
			return
		}
		still := c.still[:0]
		var lastArr time.Duration
		cursor := recoverAt
		for _, i := range c.lost {
			sent, a, ok := c.net.SendSegment(cursor, t.segSize(i, n, tail), t.dir)
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
		c.lost, c.still = still, c.lost
	}
}

// finish marks the transfer complete; its bytes occupy the send window
// until the final cumulative ACK lands.
func (t *Transfer) finish() {
	t.done = true
	t.h.inflight = append(t.h.inflight, inflightRef{clearAt: t.next, bytes: t.size})
}
