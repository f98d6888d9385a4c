// Package tcpsim is a deterministic virtual-time TCP model layered on the
// simnet link. Where simnet's fluid path charges every message one
// serialization plus half-RTT propagation, tcpsim moves bytes through
// per-connection state machines with the dynamics that decide real
// IP-storage performance (the paper's Section 3.1 rmem/wmem tuning and the
// Figure 6 WAN sweep): slow start, AIMD congestion avoidance, a
// configurable window cap, delayed ACKs, Nagle's algorithm, and loss
// recovery by fast retransmit or RTO — all fed by the link's injected
// LossRate, so timeouts emerge from retransmission math instead of being
// asserted.
//
// The unit of simulation is the window round: a flight of segments leaves
// the sender, serializes on the shared link, suffers (or survives) loss
// injection, and its ACKs clock the next flight. A Transfer exposes that
// round structure as a step machine so concurrent connections sharing one
// link (iSCSI MC/S, N clients on a segment) interleave in virtual-time
// order; Conn.Transfer runs a single flow to completion and satisfies
// simnet.Transport. A Transfer is a value its caller steps in place, and a
// round's scratch belongs to its Conn, so window rounds cost the heap
// nothing once a connection is warm.
//
// Everything is a pure function of virtual time and the deterministic
// link RNG: identical seeds give byte-identical timelines.
package tcpsim

import (
	"fmt"
	"time"

	"repro/internal/simnet"
)

// Config parameterizes one connection. The zero value selects defaults
// matching a 2.6-era Linux stack on Ethernet.
type Config struct {
	// MSS is the maximum segment payload in bytes (default 1448: 1500
	// MTU minus IP/TCP headers plus timestamps).
	MSS int
	// WindowBytes caps the send window — the min of the peer's
	// advertised receive window and the local send buffer, i.e. the
	// rmem/wmem knob from the paper's Section 3.1 (default 64 KB).
	WindowBytes int
	// InitCwnd is the initial congestion window in segments (default 3,
	// RFC 3390).
	InitCwnd int
	// DisableDelAck turns delayed ACKs off.
	DisableDelAck bool
	// DisableNagle turns off Nagle's algorithm (TCP_NODELAY): sub-MSS
	// tails are sent without waiting for outstanding data to be ACKed.
	DisableNagle bool
}

// The stack's fixed timers and retry budgets, those of a 2.6-era Linux.
const (
	// delAckDelay is the delayed-ACK timer, the Linux quick-ack floor.
	delAckDelay = 40 * time.Millisecond
	// initRTO, minRTO and maxRTO bound the retransmission timer: RFC 6298
	// with the Linux floor.
	initRTO = time.Second
	minRTO  = 200 * time.Millisecond
	maxRTO  = 60 * time.Second
	// maxRetries bounds consecutive retransmissions of one segment before
	// the connection is declared dead (the Linux tcp_retries2 analogue).
	maxRetries = 15
	// maxSynRetries bounds connection-establishment attempts.
	maxSynRetries = 5
)

func (c *Config) fill() {
	if c.MSS <= 0 {
		c.MSS = 1448
	}
	if c.WindowBytes <= 0 {
		c.WindowBytes = 64 << 10
	}
	if c.WindowBytes < c.MSS {
		c.WindowBytes = c.MSS
	}
	if c.InitCwnd <= 0 {
		c.InitCwnd = 3
	}
}

// Stats counts connection-level activity.
type Stats struct {
	Segments        int64 // data segments sent (including retransmissions)
	Acks            int64 // pure ACK frames sent
	Retransmits     int64 // data segments re-sent (fast retransmit or RTO)
	FastRetransmits int64 // recoveries triggered by triple duplicate ACKs
	Timeouts        int64 // recoveries (and handshake retries) driven by RTO
	Failures        int64 // transfers abandoned after maxRetries
}

// Add accumulates o into s (aggregating MC/S connections).
func (s *Stats) Add(o Stats) {
	s.Segments += o.Segments
	s.Acks += o.Acks
	s.Retransmits += o.Retransmits
	s.FastRetransmits += o.FastRetransmits
	s.Timeouts += o.Timeouts
	s.Failures += o.Failures
}

// Counters exports the stats for the metrics event stream
// (metrics.SubsysTCP; see docs/METRICS.md).
func (s Stats) Counters() map[string]int64 {
	return map[string]int64{
		"segments":         s.Segments,
		"acks":             s.Acks,
		"retransmits":      s.Retransmits,
		"fast_retransmits": s.FastRetransmits,
		"timeouts":         s.Timeouts,
		"failures":         s.Failures,
	}
}

// inflightRef records one transfer's un-ACKed bytes: they occupy the send
// window until the transfer's final cumulative ACK arrives.
type inflightRef struct {
	clearAt time.Duration
	bytes   int
}

// half is the per-direction congestion state: each side of the connection
// runs its own window over the shared path estimate. inflight tracks
// bytes committed by earlier transfers that are still un-ACKed, so
// back-to-back messages pipeline onto the stream up to the window instead
// of stalling one ACK round-trip apiece.
type half struct {
	cwnd     float64 // congestion window, segments
	ssthresh float64 // slow-start threshold, segments
	inflight []inflightRef
}

// Conn is one virtual-time TCP connection over a simnet link. The two
// directions carry independent congestion windows (each endpoint is a
// sender) over a shared RTT estimate.
type Conn struct {
	net *simnet.Network
	cfg Config

	up, down half // client->server / server->client senders

	srtt, rttvar time.Duration
	rto          time.Duration

	established bool
	broken      bool
	stats       Stats

	// One window round's arrival times, duplicate-ACK arrivals and lost
	// segment indexes: scratch Step reuses, never read past its return.
	arr, dup    []time.Duration
	lost, still []int
}

// NewConn builds a connection over net. Connect must be called before
// transfers. The round scratch and in-flight lists share one array per type:
// arrival times for a window plus a tail, and 8 of each of the rest, which a
// lossy round or a burst of small messages may outgrow.
func NewConn(net *simnet.Network, cfg Config) *Conn {
	cfg.fill()
	w := max(cfg.WindowBytes/cfg.MSS, 1)
	c := &Conn{net: net, cfg: cfg, rto: initRTO}
	c.up = half{cwnd: float64(cfg.InitCwnd), ssthresh: float64(w)}
	c.down = half{cwnd: float64(cfg.InitCwnd), ssthresh: float64(w)}
	times, idx, refs := make([]time.Duration, w+1+8), make([]int, 16), make([]inflightRef, 16)
	c.arr, c.dup = times[:0:w+1], times[w+1:w+1]
	c.lost, c.still = idx[:0:8], idx[8:8]
	c.up.inflight, c.down.inflight = refs[:0:8], refs[8:8]
	return c
}

// Stats returns a snapshot of connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.established && !c.broken }

// Break severs the connection from outside the transfer machinery — the
// peer crashed or reset it (fault injection). Subsequent transfers fail
// fast with ok=false; recovery requires a fresh Conn and Connect, exactly
// as when the retransmission budget breaks the connection from inside.
func (c *Conn) Break() { c.broken = true }

// config returns the (filled) connection configuration.
func (c *Conn) config() Config { return c.cfg }

// Gauges exports the connection's instantaneous congestion state for the
// health scraper (metrics.SubsysGauge): the client->server sender's
// congestion window in segments and its un-ACKed bytes still occupying
// the send window at time now.
func (c *Conn) Gauges(now time.Duration) map[string]float64 {
	var inflight int64
	for _, ref := range c.up.inflight {
		if ref.clearAt > now {
			inflight += int64(ref.bytes)
		}
	}
	return map[string]float64{
		"cwnd_segs":      c.up.cwnd,
		"inflight_bytes": float64(inflight),
	}
}

// sender returns the per-direction window state.
func (c *Conn) sender(d simnet.Direction) *half {
	if d == simnet.ClientToServer {
		return &c.up
	}
	return &c.down
}

// reverse flips a direction (the ACK path).
func reverse(d simnet.Direction) simnet.Direction {
	if d == simnet.ClientToServer {
		return simnet.ServerToClient
	}
	return simnet.ClientToServer
}

// admit returns the earliest time >= start at which a transfer of size
// bytes may begin sending: un-ACKed bytes from earlier transfers must
// leave window room (a transfer at least as large as the whole window
// waits for the stream to quiesce). Cleared entries are pruned.
func (c *Conn) admit(h *half, start time.Duration, size int) time.Duration {
	t := start
	for {
		out := 0
		earliest := time.Duration(-1)
		for _, r := range h.inflight {
			if r.clearAt > t {
				out += r.bytes
				if earliest < 0 || r.clearAt < earliest {
					earliest = r.clearAt
				}
			}
		}
		if out == 0 || out+size <= c.cfg.WindowBytes {
			kept := h.inflight[:0]
			for _, r := range h.inflight {
				if r.clearAt > t {
					kept = append(kept, r)
				}
			}
			h.inflight = kept
			return t
		}
		t = earliest
	}
}

// windowSegs returns the effective send window in segments: cwnd capped by
// the configured window (rmem/wmem).
func (c *Conn) windowSegs(h *half) int {
	cap := c.cfg.WindowBytes / c.cfg.MSS
	if cap < 1 {
		cap = 1
	}
	w := int(h.cwnd)
	if w < 1 {
		w = 1
	}
	if w > cap {
		w = cap
	}
	return w
}

// observeRTT feeds one clean round-trip sample into the RFC 6298
// estimator and re-arms the retransmission timer.
func (c *Conn) observeRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = min(max(c.srtt+4*c.rttvar, minRTO), maxRTO)
}

// backoffRTO doubles the retransmission timer (Karn's algorithm on a
// timeout; the next clean sample re-derives it from srtt).
func (c *Conn) backoffRTO() {
	c.rto = min(2*c.rto, maxRTO)
}

// Connect performs the three-way handshake starting at 'at' and returns
// the time the connection is usable at the client. SYN and SYN-ACK frames
// are subject to loss injection; each failed attempt burns one doubled
// handshake timeout.
func (c *Conn) Connect(at time.Duration) (time.Duration, error) {
	rto := initRTO
	for attempt := 0; attempt <= maxSynRetries; attempt++ {
		c.stats.Segments++
		_, synArr, ok := c.net.SendSegment(at, 0, simnet.ClientToServer)
		if ok {
			c.stats.Segments++
			_, saArr, ok2 := c.net.SendSegment(synArr, 0, simnet.ServerToClient)
			if ok2 {
				// The final ACK rides the first data segment; the
				// handshake seeds the RTT estimate.
				c.observeRTT(saArr - at)
				c.established = true
				return saArr, nil
			}
		}
		c.stats.Timeouts++
		at += rto
		rto *= 2
	}
	c.broken = true
	return at, fmt.Errorf("tcpsim: connect failed after %d SYN attempts", maxSynRetries+1)
}

// Transfer ships size bytes in direction d, running the window rounds to
// completion, and returns the time the last in-order byte is available at
// the receiver. It implements simnet.Transport; ok is false only when the
// connection has died (maxRetries exceeded, or never established).
func (c *Conn) Transfer(start time.Duration, size int, d simnet.Direction) (time.Duration, bool) {
	x := c.StartTransfer(start, size, d)
	for !x.Done() {
		x.Step()
	}
	return x.Delivered(), !x.Failed()
}
