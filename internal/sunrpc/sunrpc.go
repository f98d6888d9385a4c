// Package sunrpc models the ONC RPC layer NFS rides on: call/reply framing
// over UDP (NFS v2) or TCP (v3/v4), client-side timeouts, retransmission
// with exponential backoff, and a duplicate-request cache at the server.
//
// The retransmission model reproduces the Linux client behaviour the paper
// observed in its latency sweep (Section 4.6): the client uses its own
// RPC-level timer rather than relying on TCP's error recovery, so at high
// round-trip times it re-issues requests that are still in transit,
// wasting bandwidth and degrading performance faster than iSCSI.
package sunrpc

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/simnet"
	"repro/internal/tracing"
)

// Transport selects the RPC transport model.
type Transport int

// Transports.
const (
	UDP Transport = iota
	TCP
)

func (t Transport) String() string {
	if t == UDP {
		return "udp"
	}
	return "tcp"
}

// Wire constants: ONC RPC call header with AUTH_UNIX credentials is about
// 64 bytes; the reply header about 32. TCP adds 4 bytes of record marking.
const (
	callHeaderBytes  = 64
	replyHeaderBytes = 32
	tcpRecordMark    = 4
)

// defaultSlotEntries is the Linux RPC transport slot table size
// (xprt_tcp_slot_table_entries / xprt_udp_slot_table_entries = 16): the
// hard cap on in-flight calls per transport. When a client keeps more
// RPCs outstanding than slots — e.g. a write-behind pool with a wider
// flush window — the extra calls queue at the slot table, and the table,
// not the wire, becomes the bottleneck. The slot-wait counters expose
// exactly that in the telemetry stream.
const defaultSlotEntries = 16

// Stats counts RPC-layer activity.
type Stats struct {
	Calls       int64
	Retransmits int64
	Timeouts    int64
	Failures    int64
	// SlotWaits counts calls that found every transport slot occupied;
	// SlotWaitNs accumulates the virtual time they spent queued for one.
	SlotWaits  int64
	SlotWaitNs int64
}

// Add accumulates o into s (aggregating clients across remounts).
func (s *Stats) Add(o Stats) {
	s.Calls += o.Calls
	s.Retransmits += o.Retransmits
	s.Timeouts += o.Timeouts
	s.Failures += o.Failures
	s.SlotWaits += o.SlotWaits
	s.SlotWaitNs += o.SlotWaitNs
}

// Counters exports the stats for the metrics event stream
// (metrics.SubsysRPC; see docs/METRICS.md).
func (s Stats) Counters() map[string]int64 {
	return map[string]int64{
		"calls":        s.Calls,
		"retransmits":  s.Retransmits,
		"timeouts":     s.Timeouts,
		"failures":     s.Failures,
		"slot_waits":   s.SlotWaits,
		"slot_wait_ns": s.SlotWaitNs,
	}
}

// Client is the RPC client endpoint.
type Client struct {
	Net       *simnet.Network
	Transport Transport

	// RTO is the client's (fixed) initial retransmission timeout. The
	// Linux client of the era behaved as if this were a few hundred
	// milliseconds regardless of path RTT; retransmitted requests double
	// the timer (exponential backoff).
	RTO time.Duration
	// MaxRetries bounds retransmissions before the call errors out.
	MaxRetries int
	// SlotEntries is the transport slot table size: the cap on in-flight
	// calls (default defaultSlotEntries = 16, the Linux sysctl). A call
	// arriving with every slot occupied waits for the earliest-freeing
	// one; the wait is counted in Stats. Resize before issuing calls.
	SlotEntries int

	// slots holds each slot's completion horizon, and order the slots
	// sorted by (horizon, index): order[0] is the earliest-freeing slot,
	// the lowest index on a tie.
	slots []time.Duration
	order []int

	// conn, when set, is a reliable byte-stream transport (a tcpsim
	// connection) the calls ride instead of fluid datagrams: loss
	// recovery then happens inside TCP and the RPC layer never
	// retransmits (the Linux RPC-over-TCP timer is 60 s, effectively
	// unreachable), the behaviour that separates NFS-over-TCP from
	// NFS-over-UDP as loss rises.
	conn simnet.Transport

	stats  Stats
	tracer *tracing.Tracer
}

// NewClient builds an RPC client over net.
func NewClient(net *simnet.Network, tr Transport) *Client {
	return &Client{
		Net:         net,
		Transport:   tr,
		RTO:         350 * time.Millisecond,
		MaxRetries:  8,
		SlotEntries: defaultSlotEntries,
	}
}

// acquireSlot admits one call into the transport slot table no earlier
// than start: with every slot occupied it waits for the earliest-freeing
// one, the lowest index on a tie (accounted in the slot-wait counters). The
// caller records the call's completion time with release.
func (c *Client) acquireSlot(start time.Duration) (admit time.Duration, slot int) {
	n := c.SlotEntries
	if n <= 0 {
		n = defaultSlotEntries
	}
	if len(c.slots) != n {
		c.slots, c.order = make([]time.Duration, n), make([]int, n)
		for i := range c.order {
			c.order[i] = i
		}
	}
	slot = c.order[0]
	admit = start
	if free := c.slots[slot]; free > admit {
		admit = free
		c.stats.SlotWaits++
		c.stats.SlotWaitNs += int64(free - start)
	}
	return admit, slot
}

// release records that the call holding slot completes at done and moves
// the slot to its place in order, searched from the end: calls mostly
// complete in the order they were admitted.
func (c *Client) release(slot int, done time.Duration) {
	i := slices.Index(c.order, slot)
	order := slices.Delete(c.order, i, i+1)
	c.slots[slot] = done
	j := len(order)
	for ; j > 0; j-- {
		if h := c.slots[order[j-1]]; h < done || h == done && order[j-1] < slot {
			break
		}
	}
	c.order = slices.Insert(order, j, slot)
}

// SetTracer attaches a tracer that records slot-table waits
// (tracing.LayerRPC) and call/reply transport legs (tracing.LayerTCP or
// LayerUDP), under which the wire's own link spans nest. Nil = off.
func (c *Client) SetTracer(t *tracing.Tracer) { c.tracer = t }

// layer names the tracing layer for this client's transport legs.
func (c *Client) layer() tracing.Layer {
	if c.Transport == UDP {
		return tracing.LayerUDP
	}
	return tracing.LayerTCP
}

// SetConn attaches a reliable byte-stream transport. Calls are framed
// onto the stream (RFC 1831 record marking) and the datagram
// retransmission machinery is bypassed entirely.
func (c *Client) SetConn(t simnet.Transport) { c.conn = t }

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats { return c.stats }

// Gauges exports the transport slot table's instantaneous occupancy for
// the health scraper (metrics.SubsysGauge): slots whose completion
// horizon lies past now, both as a count and as a fraction of the table.
func (c *Client) Gauges(now time.Duration) map[string]float64 {
	n := c.SlotEntries
	if n <= 0 {
		n = defaultSlotEntries
	}
	var used int
	for _, h := range c.slots {
		if h > now {
			used++
		}
	}
	return map[string]float64{
		"slots_in_use": float64(used),
		"slot_frac":    float64(used) / float64(n),
	}
}

// sendMsg delivers one call or reply unit on the datagram path: over UDP
// it is a real datagram — fragmented on the wire and lost whole if any
// MTU fragment is lost — while the record-marked fluid TCP path keeps the
// single-frame message model (TCP would recover segments underneath).
func (c *Client) sendMsg(start time.Duration, size int, d simnet.Direction) (time.Duration, bool) {
	if c.Transport == UDP {
		return c.Net.SendDatagram(start, size, d)
	}
	return c.Net.Send(start, size, d)
}

// overhead returns per-message framing bytes.
func (c *Client) overhead() (call, reply int) {
	call, reply = callHeaderBytes, replyHeaderBytes
	if c.Transport == TCP {
		call += tcpRecordMark
		reply += tcpRecordMark
	}
	return call, reply
}

// Call performs one RPC: argBytes of encoded arguments travel to the
// server, serve maps arrival time to (result size, service completion),
// and the reply travels back. Returns the completion time. The call
// first claims a transport slot (the Linux 16-entry slot table); with
// every slot occupied by in-flight calls it queues for the earliest one,
// and the wait shows up in the slot-wait counters.
//
// Timeout handling: if the reply would arrive after the client's RTO
// fires, the client retransmits (duplicate request frame plus, for the
// duplicate-request cache hit, a duplicate reply frame). Retransmissions
// consume bandwidth and delay the caller slightly but do not re-execute
// the operation, mirroring a server-side duplicate request cache.
func (c *Client) Call(start time.Duration, argBytes int,
	serve func(arrive time.Duration) (resultBytes int, done time.Duration)) (time.Duration, error) {
	callOH, replyOH := c.overhead()
	c.stats.Calls++
	admit, slot := c.acquireSlot(start)
	if admit > start {
		c.tracer.Record(start, admit, tracing.LayerRPC, "slot-wait")
	}
	var done time.Duration
	var err error
	if c.conn != nil {
		done, err = c.callStream(admit, callOH+argBytes, replyOH, serve)
	} else {
		done, err = c.callDatagram(admit, callOH+argBytes, replyOH, serve)
	}
	c.release(slot, done)
	return done, err
}

// callDatagram performs one RPC over the datagram path with the
// RPC-timer retransmission machinery. callBytes is the framed call size.
func (c *Client) callDatagram(start time.Duration, callBytes, replyOH int,
	serve func(arrive time.Duration) (resultBytes int, done time.Duration)) (time.Duration, error) {
	attemptStart := start
	rto := c.RTO
	if rto <= 0 {
		rto = 350 * time.Millisecond
	}
	c.Net.CountMessage()
	// Duplicate-request cache: once the server has executed the call, a
	// retransmission (reply lost) replays the cached reply instead of
	// re-executing the operation.
	served := false
	cachedResult := 0
	for attempt := 0; ; attempt++ {
		leg := c.tracer.Begin(attemptStart, c.layer(), "call")
		arrive, ok := c.sendMsg(attemptStart, callBytes, simnet.ClientToServer)
		c.tracer.End(leg, arrive)
		if ok {
			var resultBytes int
			var done time.Duration
			if served {
				resultBytes, done = cachedResult, arrive
			} else {
				resultBytes, done = serve(arrive)
				served, cachedResult = true, resultBytes
			}
			if done < arrive {
				done = arrive
			}
			leg = c.tracer.Begin(done, c.layer(), "reply")
			reply, rok := c.sendMsg(done, replyOH+resultBytes, simnet.ServerToClient)
			c.tracer.End(leg, reply)
			if rok {
				// Spurious retransmissions: while the reply was in flight,
				// did the client's timer fire?
				return c.spuriousRetransmits(start, reply, callBytes, replyOH+resultBytes, rto), nil
			}
		}
		// Request or reply lost: the client discovers nothing until the
		// timer fires, then retransmits.
		c.stats.Timeouts++
		if attempt >= c.MaxRetries {
			c.stats.Failures++
			return attemptStart + rto, fmt.Errorf("sunrpc: call failed after %d retransmissions: %w",
				attempt, simnet.ErrTransportBroken)
		}
		c.stats.Retransmits++
		attemptStart = attemptStart + rto
		rto *= 2
	}
}

// callStream performs one RPC over the attached byte stream: the call
// record travels to the server, the reply record travels back, and any
// frame loss is absorbed by TCP's own retransmission below the RPC layer.
// The call fails only if the connection itself dies.
func (c *Client) callStream(start time.Duration, callBytes, replyOH int,
	serve func(arrive time.Duration) (resultBytes int, done time.Duration)) (time.Duration, error) {
	c.Net.CountMessage()
	leg := c.tracer.Begin(start, tracing.LayerTCP, "call")
	arrive, ok := c.conn.Transfer(start, callBytes, simnet.ClientToServer)
	c.tracer.End(leg, arrive)
	if !ok {
		c.stats.Failures++
		return arrive, fmt.Errorf("sunrpc: stream transport failed sending call: %w", simnet.ErrTransportBroken)
	}
	resultBytes, done := serve(arrive)
	if done < arrive {
		done = arrive
	}
	leg = c.tracer.Begin(done, tracing.LayerTCP, "reply")
	reply, ok := c.conn.Transfer(done, replyOH+resultBytes, simnet.ServerToClient)
	c.tracer.End(leg, reply)
	if !ok {
		c.stats.Failures++
		return reply, fmt.Errorf("sunrpc: stream transport failed sending reply: %w", simnet.ErrTransportBroken)
	}
	return reply, nil
}

// spuriousRetransmits models the pathology from Section 4.6: the reply is
// in transit but the client's timer fires anyway. Each spurious
// retransmission sends a duplicate request; the server's duplicate request
// cache answers with a duplicate reply. The caller's completion is pushed
// out by the churn.
func (c *Client) spuriousRetransmits(start, reply time.Duration, reqSize, respSize int, rto time.Duration) time.Duration {
	deadline := start + rto
	done := reply
	for deadline < reply {
		c.stats.Retransmits++
		arrive := c.Net.CountRetransmit(deadline, reqSize)
		// Duplicate reply from the duplicate-request cache.
		dup, _ := c.sendMsg(arrive, respSize, simnet.ServerToClient)
		if dup > done {
			done = dup
		}
		rto *= 2
		deadline += rto
	}
	return done
}
