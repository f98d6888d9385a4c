// Package simnet models the isolated Gigabit Ethernet LAN from the paper's
// testbed (Section 3.1) in virtual time, including the NISTNet-style
// wide-area delay injection used for the Figure 6 latency sweep.
//
// The link is full duplex: each direction is an independently serialized
// resource with a configurable bandwidth, plus a propagation delay of
// RTT/2 per traversal. Message loss can be injected for failure testing.
//
// The network counts protocol transactions (Messages), raw frames and
// bytes; see package metrics for the unit conventions.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// ErrTransportBroken classifies transport-level connection death: a TCP
// connection aborted after exhausting its retransmissions, or a datagram
// exchange abandoned after its retry budget — the congestion-collapse
// failure mode. Protocol layers wrap it so harnesses can tell a
// collapsed configuration from a programming error (errors.Is).
var ErrTransportBroken = errors.New("simnet: transport connection broken")

// Direction of a one-way frame.
type Direction int

// Frame directions.
const (
	ClientToServer Direction = iota
	ServerToClient
)

// Config describes link characteristics.
type Config struct {
	// RTT is the round-trip propagation delay. The paper's LAN measured
	// under 1 ms; NISTNet sweeps push this to 10..90 ms.
	RTT time.Duration
	// Bandwidth in bytes per second per direction. Gigabit Ethernet
	// nets about 117 MB/s of goodput after framing overhead.
	Bandwidth int64
	// PerFrameOverhead is added to every frame's size to account for
	// Ethernet/IP/TCP headers.
	PerFrameOverhead int
	// LossRate is the probability of losing any one MTU-sized fragment
	// (failure injection; 0 for all paper experiments except robustness
	// tests). A frame larger than the MTU fragments on the wire and is
	// lost if any fragment is lost — the amplification that makes large
	// UDP datagrams (an 8 KB NFS READ reply is six fragments) so fragile
	// on lossy paths.
	LossRate float64
	// MTU bounds one unfragmented wire frame (default 1500).
	MTU int
	// Seed seeds the loss-injection RNG.
	Seed int64
}

// DefaultLAN returns the paper's testbed LAN: Gigabit Ethernet, ~200 us RTT.
func DefaultLAN() Config {
	return Config{
		RTT:              200 * time.Microsecond,
		Bandwidth:        117 << 20, // ~117 MiB/s goodput
		PerFrameOverhead: 66,        // Ethernet+IP+TCP headers
	}
}

// Network is a simulated full-duplex point-to-point link. When a shared
// bottleneck endpoint is attached (AttachShared), serialization and
// queueing happen at the shared netqueue.Link instead of this network's
// private busy horizons, while propagation delay and loss injection stay
// here — the per-client heterogeneity knobs.
type Network struct {
	cfg    Config
	up     sim.Resource // client -> server
	down   sim.Resource // server -> client
	bg     [2]float64   // fluid background utilization per direction
	shared *netqueue.Endpoint
	rng    *rand.Rand
	stats  metrics.NetStats
	tracer *tracing.Tracer

	// outageFrom/outageUntil delimit a scheduled partition window
	// (SetOutage); zero values mean no outage.
	outageFrom, outageUntil time.Duration
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = DefaultLAN().Bandwidth
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	return &Network{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
}

// SetTracer attaches a tracer that records every wire interval: private
// serialization and HOL waits as tracing.LayerLink spans, shared-bottleneck
// occupancy (enqueue through departure, including drops) as
// tracing.LayerQueue spans. Propagation delay is deliberately unrecorded —
// it bills to the enclosing transport leg on the critical path. A nil
// tracer is the zero-cost disabled state.
func (n *Network) SetTracer(t *tracing.Tracer) { n.tracer = t }

// AttachShared routes this network's frames through an endpoint of a
// shared bottleneck link (see internal/netqueue): serialization and
// drop-tail queueing move to the shared pipe — so concurrent networks
// attached to the same link contend for one wire — while this network
// keeps charging its own propagation delay and loss. Drop-tail overflow
// hits the traffic that can lose frames and recover: UDP datagrams (the
// RPC timer retransmits them) and TCP segments (the flow backs off), each
// counted as a lost frame here. Stream-carried fluid messages are instead
// backpressured — they wait out the backlog but are never killed, since
// the byte stream underneath would deliver them.
func (n *Network) AttachShared(ep *netqueue.Endpoint) { n.shared = ep }

// SetBackground injects fluid background load on the wire: each
// direction's serialization runs at the residual bandwidth (1-rho) x
// capacity, covering the fluid path, TCP segment pacing and control
// frames alike. Propagation delay and loss are per-frame properties and
// stay untouched. A rho outside [0, 1), NaN included, in either direction
// is an error and changes nothing — a saturated wire has no residual
// capacity to simulate against.
func (n *Network) SetBackground(up, down float64) error {
	for _, rho := range [2]float64{up, down} {
		if !(rho >= 0 && rho < 1) {
			return fmt.Errorf("simnet: background utilization %g outside [0, 1)", rho)
		}
	}
	n.bg[ClientToServer], n.bg[ServerToClient] = up, down
	return nil
}

// background reports the fluid background utilization per direction.
func (n *Network) background() (up, down float64) {
	return n.bg[ClientToServer], n.bg[ServerToClient]
}

// Bandwidth reports the configured wire capacity in bytes/sec per
// direction (fleet calibrations divide wire bytes by it).
func (n *Network) Bandwidth() int64 { return n.cfg.Bandwidth }

// SetRTT adjusts the propagation delay mid-simulation (the NISTNet knob).
func (n *Network) SetRTT(rtt time.Duration) { n.cfg.RTT = rtt }

// RTT reports the configured round-trip propagation delay.
func (n *Network) RTT() time.Duration { return n.cfg.RTT }

// LossRate reports the configured frame loss probability.
func (n *Network) LossRate() float64 { return n.cfg.LossRate }

// SetOutage schedules a link partition in virtual time: every droppable
// frame whose transmission starts in [from, until) is lost, regardless of
// the configured loss rate. Control traffic (mounts, connection setup)
// still passes — the partition models a black-holed data path, and fault
// recovery needs to re-establish state through it afterwards. Because the
// window is part of the timeline rather than a mutable flag, a
// retransmission ladder that spans the outage (an RPC RTO backoff, a TCP
// recovery round) succeeds at exactly the first attempt after `until`,
// which keeps fault injection deterministic even when one synchronous op
// crosses the heal instant. A zero window (the default) disables it.
func (n *Network) SetOutage(from, until time.Duration) {
	n.outageFrom, n.outageUntil = from, until
}

// outage reports the scheduled partition window.
func (n *Network) outage() (from, until time.Duration) {
	return n.outageFrom, n.outageUntil
}

// inOutage reports whether a frame starting at t falls in the partition.
func (n *Network) inOutage(t time.Duration) bool {
	return t >= n.outageFrom && t < n.outageUntil
}

// Stats returns a snapshot of the accumulated counters.
func (n *Network) Stats() metrics.NetStats { return n.stats }

// Counters exports the link counters for the metrics event stream
// (metrics.SubsysNet; see docs/METRICS.md).
func (n *Network) Counters() map[string]int64 { return n.stats.Counters() }

// dir returns the resource for a direction.
func (n *Network) dir(d Direction) *sim.Resource {
	if d == ClientToServer {
		return &n.up
	}
	return &n.down
}

// lossProb returns the probability a wire unit of size payload bytes
// dies. With fragment=false (TCP-carried traffic and the fluid model's
// message frames) one loss draw covers the unit. With fragment=true (UDP
// datagrams) the per-fragment rate is amplified across the datagram's MTU
// fragments — losing any one loses the whole datagram, the fragility that
// makes 8 KB NFS-over-UDP transfers collapse on lossy paths while TCP
// loses and retransmits single segments.
func (n *Network) lossProb(size int, fragment bool) float64 {
	p := n.cfg.LossRate
	if p <= 0 || !fragment {
		return p
	}
	frags := (size + n.cfg.MTU - 1) / n.cfg.MTU
	if frags <= 1 {
		return p
	}
	survive := 1.0
	for i := 0; i < frags; i++ {
		survive *= 1 - p
	}
	return 1 - survive
}

// account records one frame of size payload bytes heading in direction d
// and returns its wire size (payload plus per-frame overhead) and its
// serialization delay at link bandwidth.
func (n *Network) account(size int, d Direction) (wire int, ser time.Duration) {
	w := int64(size + n.cfg.PerFrameOverhead)
	n.stats.Frames++
	if d == ClientToServer {
		n.stats.BytesSent += w
	} else {
		n.stats.BytesRecv += w
	}
	bw := n.cfg.Bandwidth
	if rho := n.bg[d]; rho > 0 {
		bw = int64(float64(bw) * (1 - rho))
	}
	return int(w), time.Duration(w * int64(time.Second) / bw)
}

// qdir maps a frame direction onto the shared link's.
func qdir(d Direction) netqueue.Direction {
	if d == ClientToServer {
		return netqueue.Up
	}
	return netqueue.Down
}

// serialize charges one frame's wire occupancy: on a private wire it
// occupies the direction's busy horizon; through a shared bottleneck it
// queues at the link. droppable frames (UDP datagrams) are subject to the
// drop-tail check — ok=false reports a queue drop — while stream-carried
// fluid messages admit assured: the transport underneath would deliver
// them through backpressure, so a full buffer delays rather than kills
// them (an irrecoverable whole-message drop is the datagram failure mode).
func (n *Network) serialize(start time.Duration, wire int, ser time.Duration, d Direction, droppable bool) (sent time.Duration, ok bool) {
	if n.shared != nil {
		if !droppable {
			return n.shared.SendControl(start, wire, qdir(d)), true
		}
		return n.shared.Send(start, wire, qdir(d))
	}
	return n.dir(d).Acquire(start, ser), true
}

// transmit models one frame: serialization on the sending direction plus
// half-RTT propagation. It returns the arrival time and whether the frame
// survived the shared queue (if any) and loss injection.
func (n *Network) transmit(start time.Duration, size int, d Direction, fragment bool) (arrive time.Duration, ok bool) {
	wire, ser := n.account(size, d)
	var sent time.Duration
	if n.shared != nil && !fragment && n.inOutage(start) {
		// The partition kills a stream frame on this wire, before the
		// shared link would admit it assured: the link never sees it. (A
		// datagram goes on and dies at the link's own outage, a queue drop.)
		sent = start + ser
	} else if sent, ok = n.serialize(start, wire, ser, d, fragment); ok && n.inOutage(start) {
		ok = false
	} else if p := n.lossProb(size, fragment); ok && p > 0 && n.rng.Float64() < p {
		ok = false
	}
	if n.tracer.Enabled() {
		// On a private wire [start, sent) is serialization plus any HOL
		// wait; through a shared bottleneck it is queue occupancy.
		layer, op := tracing.LayerLink, "frame"
		if n.shared != nil {
			layer = tracing.LayerQueue
		}
		if !ok {
			op = "drop"
		}
		n.tracer.Record(start, sent, layer, op)
	}
	if !ok {
		n.stats.Dropped++
		return sent + n.cfg.RTT/2, false
	}
	return sent + n.cfg.RTT/2, true
}

// Send delivers a one-way frame and returns its arrival time. Lost frames
// still return an arrival time (when they would have arrived) with ok=false
// so callers can model timeouts.
func (n *Network) Send(start time.Duration, size int, d Direction) (arrive time.Duration, ok bool) {
	return n.transmit(start, size, d, false)
}

// SendDatagram delivers one UDP datagram: like Send, except that a
// datagram larger than the MTU fragments on the wire and dies if any one
// fragment is lost. The SunRPC datagram transport sends through this.
func (n *Network) SendDatagram(start time.Duration, size int, d Direction) (arrive time.Duration, ok bool) {
	return n.transmit(start, size, d, true)
}

// TCP-layer frame primitives. The TCP model is flow-level: a connection
// paces itself through windows and the ACK clock, and a flight's segments
// serialize behind one another at link bandwidth (the sender NIC), but
// frames do not occupy the fluid path's busy horizon. Flows computed
// atomically in any code order therefore interleave correctly in virtual
// time — a flight sent "in the future" cannot queue an earlier concurrent
// flow behind it, which a single busy-until horizon cannot express.

// SendSegment models one TCP data segment leaving at start: it returns
// the time the sender finished serializing it (the next segment of the
// flight starts there) and its arrival, and applies loss injection.
// Under a shared bottleneck the sender NIC still paces the flight — sent
// stays start plus this network's own serialization — while the segment
// additionally queues at the link before arriving, so a window's worth of
// back-to-back segments builds real backlog there. A drop-tail queue drop
// reads as segment loss — the congestion signal that makes co-located TCP
// flows back off against each other.
func (n *Network) SendSegment(start time.Duration, size int, d Direction) (sent, arrive time.Duration, ok bool) {
	wire, ser := n.account(size, d)
	sent = start + ser
	arrive = sent
	ok = true
	if n.shared != nil {
		arrive, ok = n.shared.Send(sent, wire, qdir(d))
	}
	if ok && n.inOutage(start) {
		ok = false
	} else if p := n.lossProb(size, false); ok && p > 0 && n.rng.Float64() < p {
		ok = false
	}
	if n.tracer.Enabled() {
		op := "segment"
		if !ok {
			op = "drop"
		}
		n.tracer.Record(start, sent, tracing.LayerLink, op)
		if n.shared != nil && arrive > sent {
			n.tracer.Record(sent, arrive, tracing.LayerQueue, op)
		}
	}
	if !ok {
		n.stats.Dropped++
	}
	return sent, arrive + n.cfg.RTT/2, ok
}

// SendControl delivers a one-way control frame (a pure TCP ACK) exempt
// from loss injection: cumulative acknowledgment makes the stream robust
// to individual ACK loss, so modeling it would only add noise. Control
// frames are counted but, on a private wire, stay off the busy horizon;
// through a shared bottleneck they queue like data yet are never dropped.
func (n *Network) SendControl(start time.Duration, size int, d Direction) (arrive time.Duration) {
	wire, ser := n.account(size, d)
	if n.shared != nil {
		sent := n.shared.SendControl(start, wire, qdir(d))
		n.tracer.Record(start, sent, tracing.LayerQueue, "ack")
		return sent + n.cfg.RTT/2
	}
	n.tracer.Record(start, start+ser, tracing.LayerLink, "ack")
	return start + ser + n.cfg.RTT/2
}

// Transport is a one-way message carrier a protocol stack ships its bytes
// through: a tcpsim.Conn, a virtual-time TCP connection with congestion
// control and internal retransmission, under which ok is false only when
// the connection has died.
type Transport interface {
	// Transfer ships size bytes in direction d starting at start and
	// returns the time the last byte is available at the receiver. ok
	// reports whether the transfer was delivered.
	Transfer(start time.Duration, size int, d Direction) (arrive time.Duration, ok bool)
}

// RoundTrip models one protocol transaction initiated by the client: a
// request frame of reqBytes, server-side processing (the serve callback
// maps arrival time to service-completion time), and a response frame of
// respBytes. It counts one Message. The request or the response may be
// lost under failure injection, in which case ok=false and done is the
// time at which the loss becomes knowable (for timeout modeling).
func (n *Network) RoundTrip(start time.Duration, reqBytes, respBytes int,
	serve func(arrive time.Duration) time.Duration) (done time.Duration, ok bool) {
	n.stats.Messages++
	arrive, ok := n.transmit(start, reqBytes, ClientToServer, false)
	if !ok {
		return arrive, false
	}
	finished := serve(arrive)
	if finished < arrive {
		finished = arrive
	}
	reply, ok := n.transmit(finished, respBytes, ServerToClient, false)
	if !ok {
		return reply, false
	}
	return reply, true
}

// CountRetransmit records a duplicated request (and its wasted bandwidth)
// caused by a client-side RPC timeout. The retransmitted frame occupies
// the uplink like any other traffic.
func (n *Network) CountRetransmit(start time.Duration, reqBytes int) time.Duration {
	arrive, _ := n.transmit(start, reqBytes, ClientToServer, true)
	n.stats.Retransmits++
	return arrive
}

// CountMessage records one protocol transaction whose frames the caller
// transmits itself via Send (the RPC layer does this because the reply
// size is only known after the server executes the call).
func (n *Network) CountMessage() { n.stats.Messages++ }
