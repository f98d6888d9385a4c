package iscsi

import (
	"fmt"
	"time"

	"repro/internal/scsi"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/tracing"
)

// wire carries the initiator's PDUs to the target and brings the
// responses back. What the frames cost is the wire's business and differs
// between the two implementations on purpose: when the client CPU demand
// of Data-In is charged, the size of the response frame, the login text,
// who counts the protocol message and the shape of the spans; only the
// fluid wire counts retries, which Initiator.Counters reads from it. What
// the PDUs say and what a response means is the initiator's.
type wire interface {
	// login brings the transport up and carries the login request,
	// which the wire may extend with its own negotiation keys.
	login(at time.Duration, req pdu) (done time.Duration, resp pdu, err error)
	// command carries one command PDU and waits for its response,
	// charging the client CPU and tracing as this wire does. leading
	// pins it to the connection that carried the login instead of taking
	// the next one in rotation. ok=false means the frames were lost for
	// good; resp is then meaningless.
	command(at time.Duration, req pdu, leading bool) (done time.Duration, resp pdu, ok bool)
	// transfer moves ext to or from lba in commands of unit bytes (the
	// last may be shorter) and returns when the last one completes.
	transfer(at time.Duration, lba int64, ext extent, unit int) (time.Duration, error)
	// conns lists the wire's TCP connections (none on the fluid wire).
	conns() []*tcpsim.Conn
}

// ---- the fluid datagram ----

// recoveryRTO is the fluid wire's stand-in for TCP's retransmission
// timer: a frame lost under failure injection is recovered by re-driving
// the exchange after this (doubling) timeout. The TCP wire recovers below
// the SCSI layer instead.
const recoveryRTO = 200 * time.Millisecond

// maxCommandRetries bounds loss recovery before an exchange is given up.
const maxCommandRetries = 6

// fluidWire sends each PDU as one simnet datagram and each command as one
// simnet.RoundTrip (which counts the protocol message), one command at a
// time.
type fluidWire struct {
	i       *Initiator
	retries int64 // commands re-driven after a lost frame
}

func (w *fluidWire) conns() []*tcpsim.Conn { return nil }

// roundTrip drives req to the target and a respBytes response frame back.
// A lost frame is retried with the same task tag after a doubling
// recovery timeout (as TCP retransmission would recover it on a real
// initiator); responses are never retried, whatever their status. ok is
// false when the retries are exhausted.
func (w *fluidWire) roundTrip(at time.Duration, req *pdu, respBytes int) (done time.Duration, resp pdu, ok bool, retries int64) {
	rto := recoveryRTO
	for ; ; retries++ {
		done, ok := w.i.net.RoundTrip(at, req.wireSize(), respBytes, func(arrive time.Duration) time.Duration {
			var t time.Duration
			resp, t = w.i.target.handle(arrive, req)
			return t
		})
		if ok || retries >= maxCommandRetries {
			return done, resp, ok, retries
		}
		at = done + rto
		rto *= 2
	}
}

func (w *fluidWire) login(at time.Duration, req pdu) (time.Duration, pdu, error) {
	done, resp, ok, _ := w.roundTrip(at, &req, 128)
	if !ok {
		return done, resp, fmt.Errorf("iscsi: login lost: %w", simnet.ErrTransportBroken)
	}
	return done, resp, nil
}

// command charges the issue path before the request leaves and the
// Data-In handling when the response has arrived; one span covers the
// exchange, recovery timeouts included. The response frame is sized from
// the expected transfer length.
func (w *fluidWire) command(at time.Duration, req pdu, _ bool) (time.Duration, pdu, bool) {
	i, expectIn := w.i, int(req.ExpectedLen)
	at = i.issue(at, req.dataLen())
	ref := i.tracer.Begin(at, tracing.LayerISCSI, opName(req.CDB[0]))
	done, resp, ok, retries := w.roundTrip(at, &req, bhsSize+pad4(expectIn))
	w.retries += retries
	if ok && resp.Status == scsi.StatusGood && expectIn > 0 {
		done = i.charge(done, time.Duration(expectIn/1024)*i.cost.PerKB)
	}
	i.tracer.End(ref, done)
	return done, resp, ok
}

// transfer issues the commands one after another.
func (w *fluidWire) transfer(at time.Duration, lba int64, ext extent, unit int) (time.Duration, error) {
	bs, size := w.i.BlockSize(), ext.size()
	for off := 0; off < size; off += unit {
		done, err := w.i.rw(at, 0, lba+int64(off/bs), ext.slice(off, min(off+unit, size), bs))
		if err != nil {
			return done, err
		}
		at = done
	}
	return at, nil
}

// ---- the MC/S session over tcpsim ----

// tcpWire is an iSCSI session multiplexing commands across N TCP
// connections, the configuration Kumar et al. show governs iSCSI
// throughput on long fat pipes. The wire counts each command's protocol
// message itself (the frames are tcpsim's), sizes the response frame from
// the actual payload, and charges a command's whole client CPU demand
// (issue path plus data handling) at issue: pipelined commands then hit
// the shared CPU resource in monotone virtual-time order, which a
// completion-time charge — landing an RTT in the future — would break.
type tcpWire struct {
	i     *Initiator
	lanes []*tcpsim.Conn
	rr    int // round-robin dispatch cursor
}

func (w *tcpWire) conns() []*tcpsim.Conn { return w.lanes }

// leg ships one PDU over c inside a tracing.LayerTCP span.
func (w *tcpWire) leg(c *tcpsim.Conn, at time.Duration, name string, size int, d simnet.Direction) (time.Duration, bool) {
	ref := w.i.tracer.Begin(at, tracing.LayerTCP, name)
	done, ok := c.Transfer(at, size, d)
	w.i.tracer.End(ref, done)
	return done, ok
}

// login connects every connection and performs the login exchange on the
// leading one, announcing the connection count.
func (w *tcpWire) login(at time.Duration, req pdu) (time.Duration, pdu, error) {
	ready := at
	for n, c := range w.lanes {
		done, err := c.Connect(at)
		if err != nil {
			return done, pdu{}, fmt.Errorf("iscsi: session conn %d: %w", n, err)
		}
		ready = max(ready, done)
	}
	req.Data = append(req.Data, fmt.Sprintf("MaxConnections=%d\x00", len(w.lanes))...)
	w.i.net.CountMessage()
	done, ok := w.lanes[0].Transfer(ready, req.wireSize(), simnet.ClientToServer)
	if ok {
		resp, svcDone := w.i.target.handle(done, &req)
		if done, ok = w.lanes[0].Transfer(svcDone, bhsSize+pad4(len(resp.Data)), simnet.ServerToClient); ok {
			return done, resp, nil
		}
	}
	return done, pdu{}, fmt.Errorf("iscsi: login lost: %w", simnet.ErrTransportBroken)
}

// command performs one synchronous command on one connection: request PDU
// up, target service, response (with inline Data-In) down. Used where
// there is nothing to overlap.
func (w *tcpWire) command(at time.Duration, req pdu, leading bool) (time.Duration, pdu, bool) {
	i, c := w.i, w.lanes[0]
	if !leading {
		c = w.lanes[w.rr]
		w.rr = (w.rr + 1) % len(w.lanes)
	}
	at = i.issue(at, req.dataLen()+int(req.ExpectedLen))
	ref := i.tracer.Begin(at, tracing.LayerISCSI, opName(req.CDB[0]))
	i.net.CountMessage()
	done, ok := w.leg(c, at, "request", req.wireSize(), simnet.ClientToServer)
	var resp pdu
	if ok {
		resp, done = i.target.handle(done, &req)
		done, ok = w.leg(c, done, "response", bhsSize+pad4(len(resp.Data)), simnet.ServerToClient)
	}
	i.tracer.End(ref, done)
	return done, resp, ok
}

// transfer deals the commands round-robin onto the connections from the
// dispatch cursor on, advancing it, and interleaves the per-connection
// pipelines so the data phases overlap.
func (w *tcpWire) transfer(at time.Duration, lba int64, ext extent, unit int) (time.Duration, error) {
	size := ext.size()
	n, cmds := len(w.lanes), (size+unit-1)/unit
	var local [8]pipe // sessions this narrow keep the pipes off the heap
	pipes := local[:0]
	for ci, c := range w.lanes {
		// Command j rides connection (rr+j) mod n, so connection ci
		// starts at command (ci-rr) mod n and takes every n-th after it.
		if first := (ci - w.rr + n) % n * unit; first < size {
			pipes = append(pipes, pipe{w: w, conn: c, lba: lba, ext: ext, size: size,
				off: first, unit: unit, stride: n * unit, at: at})
		}
	}
	w.rr = (w.rr + cmds) % n
	return runPipes(pipes)
}

// pipe is one connection's command pipeline during a striped transfer:
// its commands run one after another, each with its data phase (Data-In
// of a READ, the immediate Data-Out of a WRITE) stepped segment flight by
// segment flight so the pipelines of one transfer share the link in
// virtual-time order.
type pipe struct {
	w    *tcpWire
	conn *tcpsim.Conn
	lba  int64
	ext  extent
	size int // of ext, in bytes

	off, unit, stride int             // the next command's extent in ext, and the distance to the one after
	at                time.Duration   // when the next command may issue: the previous one's completion
	req               pdu             // the command in flight
	resp              pdu             // its response
	cspan             tracing.SpanRef // its detached iscsi span
	tspan             tracing.SpanRef // its data phase's detached tcp span
	xfer              tcpsim.Transfer // its data phase, while busy
	busy              bool
	err               error
}

func (p *pipe) done() bool { return p.err != nil || p.off >= p.size }

func (p *pipe) nextAt() time.Duration {
	if p.busy {
		return p.xfer.NextAt()
	}
	return p.at
}

// runPipes interleaves pipelines to completion by always stepping the
// earliest next event and returns the time the last one finished.
func runPipes(pipes []pipe) (time.Duration, error) {
	for {
		var best *pipe
		for k := range pipes {
			if p := &pipes[k]; !p.done() && (best == nil || p.nextAt() < best.nextAt()) {
				best = p
			}
		}
		if best == nil {
			break
		}
		best.step()
		if best.err != nil {
			return 0, best.err
		}
	}
	var last time.Duration
	for k := range pipes {
		last = max(last, pipes[k].at)
	}
	return last, nil
}

// settled closes the command in flight at 'at' if the wire lost it or
// the target refused it, and reports whether it may go on.
func (p *pipe) settled(at time.Duration, resp *pdu, ok bool) bool {
	if p.err = status(&p.req, resp, ok); p.err != nil {
		p.w.i.tracer.EndDetached(p.cspan, at)
	}
	return p.err == nil
}

// step issues the pipeline's next command or advances its data phase by
// one flight. The covering command span opens at issue and closes at
// status time; everything a step causes nests under it.
func (p *pipe) step() {
	w, i, tr := p.w, p.w.i, p.w.i.tracer
	if !p.busy {
		bs := i.BlockSize()
		ext := p.ext.slice(p.off, min(p.off+p.unit, p.size), bs)
		p.req = i.rwPDU(0, p.lba+int64(p.off/bs), ext)
		at := i.issue(p.at, ext.size())
		p.cspan = tr.BeginDetached(at, tracing.LayerISCSI, opName(p.req.CDB[0]))
		tr.Enter(p.cspan)
		defer tr.Exit(p.cspan)
		i.net.CountMessage()
		if ext.write {
			p.tspan = tr.BeginDetached(at, tracing.LayerTCP, "data-out")
			p.xfer, p.busy = p.conn.StartTransfer(at, p.req.wireSize(), simnet.ClientToServer), true
			return
		}
		arrive, ok := w.leg(p.conn, at, "request", p.req.wireSize(), simnet.ClientToServer)
		if !ok {
			p.settled(arrive, nil, false)
			return
		}
		resp, svcDone := i.target.handle(arrive, &p.req)
		if !p.settled(svcDone, &resp, true) {
			return
		}
		// The payload lives in the target's reused Data-In buffer, and other
		// pipes' commands run before this transfer ends: take it now. The
		// caller sees buf only if every transfer is delivered.
		copy(ext.buf, resp.Data)
		p.resp = resp
		p.tspan = tr.BeginDetached(svcDone, tracing.LayerTCP, "data-in")
		p.xfer, p.busy = p.conn.StartTransfer(svcDone, bhsSize+pad4(len(resp.Data)), simnet.ServerToClient), true
		return
	}
	tr.Enter(p.cspan)
	defer tr.Exit(p.cspan)
	tr.Enter(p.tspan)
	p.xfer.Step()
	if !p.xfer.Done() {
		tr.Exit(p.tspan)
		return
	}
	at, ok := p.xfer.Delivered(), !p.xfer.Failed()
	tr.EndDetached(p.tspan, at)
	tr.Exit(p.tspan)
	if ok && p.ext.write {
		// Data-Out is at the target: it executes, and the status PDU returns.
		p.resp, at = i.target.handle(at, &p.req)
		if !p.settled(at, &p.resp, true) {
			return
		}
		at, ok = w.leg(p.conn, at, "status", bhsSize+pad4(len(p.resp.Data)), simnet.ServerToClient)
	}
	if !p.settled(at, &p.resp, ok) {
		return
	}
	i.expStatSN = p.resp.StatSN
	tr.EndDetached(p.cspan, at)
	p.at = at
	p.busy = false
	p.off += p.stride
}
