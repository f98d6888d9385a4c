// Package netqueue models a shared bottleneck link: one capacity-limited,
// finite-buffer pipe per direction that multiplexes the traffic of N
// endpoints in virtual time. It supplies the congestion coupling the
// per-client simnet links cannot express on their own — when several
// clients blast one server, aggregate throughput must plateau at the pipe
// while per-client latency grows with the standing queue, and drop-tail
// overflow (not per-client pipeline depth) is what pushes TCP into
// recovery.
//
// Two queue disciplines are provided. DropTail is a single FIFO: a frame
// arriving to a full buffer is dropped, and an accepted frame waits out
// the entire backlog regardless of who queued it. DRR approximates
// deficit-round-robin fair queuing in the fluid limit (quantum -> 0, i.e.
// generalized processor sharing): each backlogged endpoint drains at
// capacity/active, so a light flow's frames see at most its fair share of
// the pipe rather than the aggregate backlog. Both disciplines are work
// conserving and account queue depth, drops and head-of-line wait
// byte-exactly (see Stats).
//
// An endpoint is only an admission handle: propagation delay and frame
// loss belong to each client's simnet network, which charges them around
// the link (per-client RTT heterogeneity lives in simnet.Config), so a
// 40 ms / 1% straggler shares the same bottleneck buffer as its LAN peers.
//
// Everything is a pure function of virtual time: identical call sequences
// give byte-identical timelines.
package netqueue

import (
	"fmt"
	"time"
)

// Direction of a one-way frame through the link.
type Direction int

// Frame directions. Up is client -> server, Down is server -> client,
// matching simnet's convention.
const (
	Up Direction = iota
	Down
)

// String names the direction for counter prefixes ("up", "down").
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Discipline selects the queue service order at the bottleneck.
type Discipline int

// Queue disciplines.
const (
	// DropTail is a single shared FIFO per direction: frames serialize in
	// arrival order and an arrival overflowing the buffer is dropped.
	DropTail Discipline = iota
	// DRR is deficit-round-robin fair queuing in the fluid limit: each
	// backlogged endpoint drains at capacity/active (generalized
	// processor sharing, which DRR approaches as its quantum shrinks),
	// with the same shared drop-tail buffer bound.
	DRR
)

// String returns the discipline's tag value ("droptail", "drr").
func (q Discipline) String() string {
	if q == DRR {
		return "drr"
	}
	return "droptail"
}

// ParseDiscipline maps a tag value back to a Discipline.
func ParseDiscipline(s string) (Discipline, error) {
	switch s {
	case "droptail":
		return DropTail, nil
	case "drr":
		return DRR, nil
	}
	return DropTail, fmt.Errorf("netqueue: unknown discipline %q (droptail, drr)", s)
}

// Config describes the bottleneck.
type Config struct {
	// Bandwidth is the pipe capacity in bytes per second per direction
	// (default 117 MiB/s, Gigabit Ethernet goodput).
	Bandwidth int64
	// QueueBytes bounds the standing queue per direction; an arrival that
	// would push the backlog past it is dropped (default 256 KiB, a
	// switch-port-sized buffer).
	QueueBytes int
	// Discipline selects the service order (default DropTail).
	Discipline Discipline
}

func (c *Config) fill() {
	if c.Bandwidth <= 0 {
		c.Bandwidth = 117 << 20
	}
	if c.QueueBytes <= 0 {
		c.QueueBytes = 256 << 10
	}
}

// Validate rejects unusable bottleneck parameters.
func (c Config) Validate() error {
	if c.Bandwidth < 0 {
		return fmt.Errorf("netqueue: negative bandwidth %d", c.Bandwidth)
	}
	if c.QueueBytes < 0 {
		return fmt.Errorf("netqueue: negative queue bound %d", c.QueueBytes)
	}
	if c.Discipline != DropTail && c.Discipline != DRR {
		return fmt.Errorf("netqueue: unknown discipline %d", c.Discipline)
	}
	return nil
}

// DirStats are one direction's cumulative counters.
type DirStats struct {
	// Frames and Bytes count traffic accepted onto the wire.
	Frames int64
	Bytes  int64
	// QueueDrops / DropBytes count arrivals rejected by the full buffer.
	QueueDrops int64
	DropBytes  int64
	// HOLWait accumulates time frames spent waiting on traffic ahead of
	// them (departure minus arrival minus full-rate serialization).
	HOLWait time.Duration
	// MaxDepthBytes is the high-water backlog, including the arriving
	// frame (monotonic, so it exports as a counter).
	MaxDepthBytes int64
}

// Stats snapshots both directions of a link.
type Stats struct {
	Up, Down DirStats
}

// Drops sums queue drops over both directions.
func (s Stats) Drops() int64 { return s.Up.QueueDrops + s.Down.QueueDrops }

// HOLWait sums head-of-line wait over both directions.
func (s Stats) HOLWait() time.Duration { return s.Up.HOLWait + s.Down.HOLWait }

// pend is one frame accepted onto the wire but not yet departed.
type pend struct {
	depart time.Duration
	bytes  int64
}

// lane is one direction of the bottleneck.
type lane struct {
	horizon    time.Duration // FIFO transmitter busy-until
	pending    []pend
	epHorizon  []time.Duration // per-endpoint fair-share completion (DRR)
	stats      DirStats
	rearmDepth int64 // peak backlog since the last RearmDepth
}

// Link is a shared bottleneck connecting N endpoints. Construct with New,
// then mint one Endpoint per attached machine.
type Link struct {
	cfg   Config
	lanes [2]lane
	neps  int
	bg    [2]int64 // fluid background load, bytes/sec per direction

	// outageFrom/outageUntil delimit a scheduled partition window
	// (SetOutage); zero values mean no outage.
	outageFrom, outageUntil time.Duration
}

// SetOutage schedules a partition of the bottleneck: every droppable
// frame admitted in [from, until) is dropped at the queue (counted as a
// queue drop), while assured control frames still pass. Like
// simnet.Network.SetOutage, the window is part of the timeline — a
// retransmission ladder spanning the outage recovers at exactly `until`,
// and the post-heal retransmission burst then drains through the queue's
// ordinary service model. A zero window (the default) disables it.
func (l *Link) SetOutage(from, until time.Duration) {
	l.outageFrom, l.outageUntil = from, until
}

// SetBackground declares closed-form fluid background load on the pipe:
// up and down are the aggregate bytes/sec of clients that are not
// mechanistically simulated (internal/fleet cohorts). Mechanistic frames
// serialize against the residual capacity from now on. The fluid load is
// stationary — it occupies bandwidth, not buffer, so the drop-tail bound
// keeps acting on mechanistic traffic only. Either rate must leave
// residual capacity; a load at or beyond the pipe capacity is rejected.
func (l *Link) SetBackground(up, down int64) error {
	if up < 0 || down < 0 {
		return fmt.Errorf("netqueue: negative background load %d/%d", up, down)
	}
	if up >= l.cfg.Bandwidth || down >= l.cfg.Bandwidth {
		return fmt.Errorf("netqueue: background load %d/%d bytes/s saturates %d bytes/s pipe",
			up, down, l.cfg.Bandwidth)
	}
	l.bg[Up], l.bg[Down] = up, down
	return nil
}

// background reports the fluid background load in bytes/sec per direction.
func (l *Link) background() (up, down int64) { return l.bg[Up], l.bg[Down] }

// New builds a link with the given configuration.
func New(cfg Config) *Link {
	cfg.fill()
	return &Link{cfg: cfg}
}

// Config returns the (filled) link configuration.
func (l *Link) Config() Config { return l.cfg }

// Stats snapshots the link's counters.
func (l *Link) Stats() Stats {
	return Stats{Up: l.lanes[Up].stats, Down: l.lanes[Down].stats}
}

// Counters exports the link counters for the metrics event stream
// (metrics.SubsysNet with a {"link":"shared"} tag; see docs/METRICS.md).
// Keys are direction-prefixed: up_frames, up_bytes, up_queue_drops,
// up_drop_bytes, up_hol_wait_ns, up_depth_max_bytes, and the
// down_ equivalents. All values are monotonic.
func (l *Link) Counters() map[string]int64 {
	out := make(map[string]int64, 12)
	for _, d := range []Direction{Up, Down} {
		s := l.lanes[d].stats
		p := d.String()
		out[p+"_frames"] = s.Frames
		out[p+"_bytes"] = s.Bytes
		out[p+"_queue_drops"] = s.QueueDrops
		out[p+"_drop_bytes"] = s.DropBytes
		out[p+"_hol_wait_ns"] = int64(s.HOLWait)
		out[p+"_depth_max_bytes"] = s.MaxDepthBytes
	}
	return out
}

// Endpoint is one machine's admission handle into the shared link.
type Endpoint struct {
	l  *Link
	id int
}

// Endpoint attaches a new endpoint to the link. Endpoints must be minted
// in a deterministic order (the cluster does so in client order).
func (l *Link) Endpoint() *Endpoint {
	id := l.neps
	l.neps++
	for d := range l.lanes {
		l.lanes[d].epHorizon = append(l.lanes[d].epHorizon, 0)
	}
	return &Endpoint{l: l, id: id}
}

// serialization returns the frame's wire occupancy in direction d at the
// residual rate left by any fluid background load.
func (l *Link) serialization(size int, d Direction) time.Duration {
	return time.Duration(int64(size) * int64(time.Second) / (l.cfg.Bandwidth - l.bg[d]))
}

// prune drops departed frames from the lane's pending list and returns
// the backlog (bytes accepted but not yet departed) at time now.
func (ln *lane) prune(now time.Duration) int64 {
	kept := ln.pending[:0]
	var backlog int64
	for _, p := range ln.pending {
		if p.depart > now {
			kept = append(kept, p)
			backlog += p.bytes
		}
	}
	ln.pending = kept
	return backlog
}

// active counts endpoints other than id with unfinished fair-share
// backlog at time now.
func (ln *lane) active(now time.Duration, id int) int {
	n := 0
	for i, h := range ln.epHorizon {
		if i != id && h > now {
			n++
		}
	}
	return n
}

// admit runs one frame of size bytes from endpoint id through lane d at
// time now: the drop-tail check (skipped for assured control frames),
// then the discipline's service model. It returns the departure time
// (sender-side completion) and whether the frame was accepted.
func (l *Link) admit(now time.Duration, size, id int, d Direction, droppable bool) (time.Duration, bool) {
	ln := &l.lanes[d]
	backlog := ln.prune(now)
	if droppable && now >= l.outageFrom && now < l.outageUntil {
		ln.stats.QueueDrops++
		ln.stats.DropBytes += int64(size)
		return now, false
	}
	if droppable && backlog > 0 && backlog+int64(size) > int64(l.cfg.QueueBytes) {
		ln.stats.QueueDrops++
		ln.stats.DropBytes += int64(size)
		return now, false
	}
	ser := l.serialization(size, d)
	var depart time.Duration
	switch l.cfg.Discipline {
	case DRR:
		// Fluid fair queuing: the frame drains at capacity/active, so its
		// service stretches by the number of competing backlogged
		// endpoints but never waits behind their whole backlog.
		start := now
		if h := ln.epHorizon[id]; h > start {
			start = h
		}
		share := time.Duration(ln.active(now, id) + 1)
		depart = start + ser*share
		ln.epHorizon[id] = depart
		if depart > ln.horizon {
			ln.horizon = depart
		}
	default:
		// FIFO: serialize behind everything already accepted.
		start := now
		if ln.horizon > start {
			start = ln.horizon
		}
		depart = start + ser
		ln.horizon = depart
		ln.epHorizon[id] = depart
	}
	ln.pending = append(ln.pending, pend{depart: depart, bytes: int64(size)})
	ln.stats.Frames++
	ln.stats.Bytes += int64(size)
	ln.stats.HOLWait += depart - now - ser
	depth := backlog + int64(size)
	if depth > ln.stats.MaxDepthBytes {
		ln.stats.MaxDepthBytes = depth
	}
	if depth > ln.rearmDepth {
		ln.rearmDepth = depth
	}
	return depart, true
}

// RearmDepth restarts the windowed depth high-water (DepthHighWater):
// harnesses call it at a measured window's start so the reported peak
// backlog excludes setup traffic. The monotonic Stats/Counters
// high-water is unaffected.
func (l *Link) RearmDepth() {
	for d := range l.lanes {
		l.lanes[d].rearmDepth = 0
	}
}

// DepthHighWater reports the deeper direction's peak backlog since the
// last RearmDepth (or construction).
func (l *Link) DepthHighWater() int64 {
	up, down := l.lanes[Up].rearmDepth, l.lanes[Down].rearmDepth
	if up > down {
		return up
	}
	return down
}

// Send runs one frame through the bottleneck. It returns the sender-side
// completion (when the frame's last byte clears the pipe); ok is false
// when the frame was dropped at the full buffer or in an outage, and sent
// is then the drop time, when the loss becomes knowable.
func (e *Endpoint) Send(now time.Duration, size int, d Direction) (sent time.Duration, ok bool) {
	return e.l.admit(now, size, e.id, d, true)
}

// SendControl runs a control frame (a pure TCP ACK) through the
// bottleneck: it serializes and queues like data but is exempt from the
// drop-tail check — cumulative acknowledgment makes streams robust to
// individual ACK loss, so modeling it would only add noise (the same
// convention as simnet.SendControl).
func (e *Endpoint) SendControl(now time.Duration, size int, d Direction) (sent time.Duration) {
	sent, _ = e.l.admit(now, size, e.id, d, false)
	return sent
}

// backlog reports the direction's standing queue in bytes at time now
// (an instantaneous gauge; the high-water mark is in Stats).
func (l *Link) backlog(now time.Duration, d Direction) int64 {
	return l.lanes[d].prune(now)
}

// Gauges exports the bottleneck's instantaneous queue depths for the
// health scraper (metrics.SubsysGauge): standing bytes per direction at
// time now. Cumulative HOL wait and drop totals live in Counters.
func (l *Link) Gauges(now time.Duration) map[string]float64 {
	return map[string]float64{
		"up_depth_bytes":   float64(l.backlog(now, Up)),
		"down_depth_bytes": float64(l.backlog(now, Down)),
	}
}
