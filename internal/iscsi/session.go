package iscsi

import (
	"fmt"
	"time"

	"repro/internal/scsi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/tracing"
)

// Session is an iSCSI session multiplexing SCSI commands across N TCP
// connections — the MC/S (multiple connections per session) configuration
// Kumar et al. show governs iSCSI throughput on long fat pipes. Commands
// are dispatched round-robin across the connections and each connection
// carries its command's PDUs start to finish (connection allegiance,
// RFC 3720 §3.2.2); a multi-chunk transfer is split into per-connection
// sub-commands whose data phases proceed concurrently, modeling the
// command-queue depth a real initiator keeps outstanding.
//
// Session implements blockdev.Device, like Initiator, so the client ext3
// mounts it unchanged; unlike Initiator it rides tcpsim connections, so
// window dynamics, delayed ACKs and RTO-driven retransmission shape every
// transfer instead of the fluid one-datagram model.
type Session struct {
	net    *simnet.Network
	target *Target
	cpu    *sim.CPU
	cost   CostModel
	tracer *tracing.Tracer
	conns  []*tcpsim.Conn

	itt       uint32
	cmdSN     uint32
	expStatSN uint32
	rr        int // round-robin dispatch cursor
	loggedIn  bool

	blockSize int
	numBlocks int64
}

// NewSession creates an MC/S session of nConns TCP connections to target
// over net, charging client CPU demand to cpu (nil for untimed tests).
func NewSession(net *simnet.Network, target *Target, cpu *sim.CPU, nConns int, tcpCfg tcpsim.Config) *Session {
	if nConns < 1 {
		nConns = 1
	}
	s := &Session{net: net, target: target, cpu: cpu, cost: DefaultInitiatorCosts()}
	for i := 0; i < nConns; i++ {
		s.conns = append(s.conns, tcpsim.NewConn(net, tcpCfg))
	}
	return s
}

// Conns reports the connection count.
func (s *Session) Conns() int { return len(s.conns) }

// Abort severs every connection in the session — the target crashed or
// reset them (fault injection). The session needs a fresh login (a new
// Session) afterwards, like a real MC/S initiator recovering a dropped
// session.
func (s *Session) Abort() {
	for _, c := range s.conns {
		c.Break()
	}
	s.loggedIn = false
}

// Broken reports whether every connection in the session has died —
// fault recovery uses it to decide a remount is needed.
func (s *Session) Broken() bool {
	for _, c := range s.conns {
		if c.Established() {
			return false
		}
	}
	return true
}

// Counters exports session-level counters for the metrics event stream
// (metrics.SubsysISCSI): SCSI commands issued (CmdSN-numbered, so MC/S
// striped sub-commands count individually). The per-connection TCP
// counters are reported separately under metrics.SubsysTCP via Stats.
func (s *Session) Counters() map[string]int64 {
	return map[string]int64{"commands": int64(s.cmdSN)}
}

// SetCosts overrides the client CPU cost model.
func (s *Session) SetCosts(c CostModel) { s.cost = c }

// SetTracer attaches a tracer. Synchronous commands become enclosing
// tracing.LayerISCSI spans; striped MC/S sub-commands — whose pipelines
// interleave and complete out of issue order — become detached command
// spans opened at issue time, with each synchronous pipeline step
// bracketed by Enter/Exit so the TCP, link, queue, CPU and disk spans it
// causes nest under the covering command. Critical-path attribution
// therefore breaks iSCSI-over-TCP ops down per layer, same as the fluid
// initiator path.
func (s *Session) SetTracer(t *tracing.Tracer) { s.tracer = t }

// Stats returns the TCP counters aggregated across all connections.
func (s *Session) Stats() tcpsim.Stats {
	var agg tcpsim.Stats
	for _, c := range s.conns {
		agg.Add(c.Stats())
	}
	return agg
}

// Gauges exports the session's instantaneous congestion state for the
// health scraper (metrics.SubsysGauge): congestion window and un-ACKed
// bytes summed across the MC/S connections.
func (s *Session) Gauges(now time.Duration) map[string]float64 {
	agg := map[string]float64{"cwnd_segs": 0, "inflight_bytes": 0}
	for _, c := range s.conns {
		for k, v := range c.Gauges(now) {
			agg[k] += v
		}
	}
	return agg
}

func (s *Session) charge(at time.Duration, d time.Duration) time.Duration {
	if s.cpu == nil {
		return at
	}
	return s.cpu.Run(at, d)
}

// Login connects every session connection, performs the login exchange on
// the leading connection, and discovers capacity (INQUIRY, READ CAPACITY),
// as a real MC/S initiator does at mount time.
func (s *Session) Login(at time.Duration) (time.Duration, error) {
	ready := at
	for i, c := range s.conns {
		done, err := c.Connect(at)
		if err != nil {
			return done, fmt.Errorf("iscsi: session conn %d: %w", i, err)
		}
		if done > ready {
			ready = done
		}
	}

	s.itt++
	req := &PDU{Opcode: OpLoginRequest, ITT: s.itt, CmdSN: s.cmdSN,
		Data: []byte("InitiatorName=iqn.2004.repro.client\x00SessionType=Normal\x00MaxConnections=" +
			fmt.Sprint(len(s.conns)) + "\x00")}
	s.net.CountMessage()
	arrive, ok := s.conns[0].Transfer(ready, req.WireSize(), simnet.ClientToServer)
	if !ok {
		return arrive, fmt.Errorf("iscsi: login transport failed: %w", simnet.ErrTransportBroken)
	}
	resp, svcDone := s.target.HandleLogin(arrive, req)
	reply, ok := s.conns[0].Transfer(svcDone, BHSSize+pad4(len(resp.Data)), simnet.ServerToClient)
	if !ok {
		return reply, fmt.Errorf("iscsi: login reply transport failed: %w", simnet.ErrTransportBroken)
	}
	if resp.Status != scsi.StatusGood {
		return reply, fmt.Errorf("iscsi: login rejected: %s", resp.Data)
	}
	s.loggedIn = true
	s.expStatSN = resp.StatSN

	done, _, ok := s.command(0, reply, scsi.Inquiry(96), nil, 96)
	if !ok {
		return done, fmt.Errorf("iscsi: inquiry failed: %w", simnet.ErrTransportBroken)
	}
	var data []byte
	done, data, ok = s.command(0, done, scsi.ReadCapacity10(), nil, 8)
	if !ok || len(data) < 8 {
		return done, fmt.Errorf("iscsi: read capacity failed: %w", simnet.ErrTransportBroken)
	}
	var cap8 [8]byte
	copy(cap8[:], data)
	last, bs := scsi.ParseCapacityData(cap8)
	s.numBlocks = int64(last) + 1
	s.blockSize = int(bs)
	return done, nil
}

// command performs one synchronous SCSI command on connection ci: request
// PDU up, target service, response (with inline Data-In) down. Used for
// discovery and cache flushes, where there is nothing to overlap.
func (s *Session) command(ci int, at time.Duration, cdb scsi.CDB, data []byte, expectIn int) (time.Duration, []byte, bool) {
	done, payload, status, ok := s.commandLUN(ci, at, 0, cdb, data, expectIn)
	return done, payload, ok && status == scsi.StatusGood
}

// commandLUN is command with an explicit LUN and the SCSI status
// exposed (shared-LUN paths must see RESERVATION CONFLICT). ok=false
// means transport failure.
func (s *Session) commandLUN(ci int, at time.Duration, lun uint64, cdb scsi.CDB, data []byte, expectIn int) (time.Duration, []byte, byte, bool) {
	req := s.nextPDU(cdb, data, expectIn)
	req.LUN = lun
	// The whole command's client CPU demand (issue path plus data
	// handling) is charged at issue: pipelined commands then hit the
	// shared CPU resource in monotone virtual-time order, which a
	// completion-time charge — landing an RTT in the future — would break.
	at = s.charge(at, s.cost.PerCommand+time.Duration((len(data)+expectIn)/1024)*s.cost.PerKB)
	ref := s.tracer.Begin(at, tracing.LayerISCSI, opName(cdb.Op))
	s.net.CountMessage()
	leg := s.tracer.Begin(at, tracing.LayerTCP, "request")
	arrive, ok := s.conns[ci].Transfer(at, req.WireSize(), simnet.ClientToServer)
	s.tracer.End(leg, arrive)
	if !ok {
		s.tracer.End(ref, arrive)
		return arrive, nil, 0, false
	}
	resp, svcDone := s.target.HandleCommand(arrive, req)
	leg = s.tracer.Begin(svcDone, tracing.LayerTCP, "response")
	reply, ok := s.conns[ci].Transfer(svcDone, BHSSize+pad4(len(resp.Data)), simnet.ServerToClient)
	s.tracer.End(leg, reply)
	s.tracer.End(ref, reply)
	if !ok {
		return reply, resp.Data, 0, false
	}
	if resp.Status == scsi.StatusGood {
		s.expStatSN = resp.StatSN
	}
	return reply, resp.Data, resp.Status, true
}

// nextConn advances the round-robin cursor and returns a connection for
// one synchronous command.
func (s *Session) nextConn() int {
	ci := s.rr
	s.rr = (s.rr + 1) % len(s.conns)
	return ci
}

// Reserve attempts a persistent reservation on the shared LUN (see
// Initiator.Reserve).
func (s *Session) Reserve(at time.Duration, rtype byte) (bool, time.Duration, error) {
	if !s.loggedIn {
		return false, at, fmt.Errorf("iscsi: reserve before login")
	}
	done, sense, status, ok := s.commandLUN(s.nextConn(), at, SharedLUN,
		scsi.PersistentReserveOut(scsi.PRActionReserve, rtype), nil, 0)
	if !ok {
		return false, done, fmt.Errorf("iscsi: PR OUT lost: %w", simnet.ErrTransportBroken)
	}
	switch status {
	case scsi.StatusGood:
		return true, done, nil
	case scsi.StatusReservationConflict:
		return false, done, nil
	}
	return false, done, fmt.Errorf("iscsi: PR OUT failed: %s", string(sense))
}

// Release drops this session's reservation on the shared LUN.
func (s *Session) Release(at time.Duration) (time.Duration, error) {
	if !s.loggedIn {
		return at, fmt.Errorf("iscsi: release before login")
	}
	done, sense, status, ok := s.commandLUN(s.nextConn(), at, SharedLUN,
		scsi.PersistentReserveOut(scsi.PRActionRelease, 0), nil, 0)
	if !ok {
		return done, fmt.Errorf("iscsi: PR OUT lost: %w", simnet.ErrTransportBroken)
	}
	if status != scsi.StatusGood {
		return done, fmt.Errorf("iscsi: release failed: %s", string(sense))
	}
	return done, nil
}

// SharedRead reads raw blocks from the shared LUN over one connection
// (single-command extents; see Initiator.SharedRead).
func (s *Session) SharedRead(at time.Duration, lba int64, buf []byte) (time.Duration, error) {
	bs := s.BlockSize()
	if len(buf)%bs != 0 || len(buf)/bs > MaxTransferBlocks {
		return at, fmt.Errorf("iscsi: bad shared read extent %d", len(buf))
	}
	n := len(buf) / bs
	done, data, status, ok := s.commandLUN(s.nextConn(), at, SharedLUN,
		scsi.Read10(uint32(lba), uint16(n)), nil, len(buf))
	if !ok {
		return done, fmt.Errorf("iscsi: shared READ(10) lost: %w", simnet.ErrTransportBroken)
	}
	switch status {
	case scsi.StatusGood:
		copy(buf, data)
		return done, nil
	case scsi.StatusReservationConflict:
		return done, ErrReservationConflict
	}
	return done, fmt.Errorf("iscsi: shared READ(10) failed: %s", string(data))
}

// SharedWrite writes raw blocks to the shared LUN over one connection.
func (s *Session) SharedWrite(at time.Duration, lba int64, data []byte) (time.Duration, error) {
	bs := s.BlockSize()
	if len(data)%bs != 0 || len(data)/bs > MaxTransferBlocks {
		return at, fmt.Errorf("iscsi: bad shared write extent %d", len(data))
	}
	n := len(data) / bs
	done, sense, status, ok := s.commandLUN(s.nextConn(), at, SharedLUN,
		scsi.Write10(uint32(lba), uint16(n)), data, 0)
	if !ok {
		return done, fmt.Errorf("iscsi: shared WRITE(10) lost: %w", simnet.ErrTransportBroken)
	}
	switch status {
	case scsi.StatusGood:
		return done, nil
	case scsi.StatusReservationConflict:
		return done, ErrReservationConflict
	}
	return done, fmt.Errorf("iscsi: shared WRITE(10) failed: %s", string(sense))
}

// nextPDU allocates task tag and command sequence numbers for one command.
func (s *Session) nextPDU(cdb scsi.CDB, data []byte, expectIn int) *PDU {
	s.itt++
	s.cmdSN++
	return &PDU{
		Opcode:      OpSCSICommand,
		Flags:       FlagFinal,
		ITT:         s.itt,
		CmdSN:       s.cmdSN,
		ExpStatSN:   s.expStatSN,
		CDB:         cdb.Encode(),
		Data:        data,
		ExpectedLen: uint32(expectIn),
	}
}

// stripeUnit returns the per-command block count for an n-block transfer:
// the extent divides across the session's connections so their data phases
// overlap, each command capped at MaxTransferBlocks.
func (s *Session) stripeUnit(n int) int {
	u := (n + len(s.conns) - 1) / len(s.conns)
	if u > MaxTransferBlocks {
		u = MaxTransferBlocks
	}
	if u < 1 {
		u = 1
	}
	return u
}

// pipe is one connection's command pipeline during a striped transfer.
// Pipelines interleave by always stepping the earliest next event, so
// concurrent data phases share the link in virtual-time order.
type pipe interface {
	done() bool
	failed() error
	nextAt() time.Duration
	step()
	completion() time.Duration
}

// runPipes interleaves pipelines to completion and returns the time the
// last one finished.
func runPipes(pipes []pipe) (time.Duration, error) {
	for {
		var best pipe
		for _, p := range pipes {
			if p.done() {
				continue
			}
			if best == nil || p.nextAt() < best.nextAt() {
				best = p
			}
		}
		if best == nil {
			break
		}
		best.step()
		if err := best.failed(); err != nil {
			return 0, err
		}
	}
	var last time.Duration
	for _, p := range pipes {
		if t := p.completion(); t > last {
			last = t
		}
	}
	return last, nil
}

// stripe describes one sub-command of a striped transfer.
type stripe struct {
	blockOff int // offset into the caller's extent, blocks
	blocks   int
}

// assign splits an n-block extent into stripes and deals them round-robin
// onto the session's connections, advancing the dispatch cursor.
func (s *Session) assign(n int) [][]stripe {
	u := s.stripeUnit(n)
	perConn := make([][]stripe, len(s.conns))
	base, cmds := s.rr, 0
	for off := 0; off < n; off += u {
		chunk := n - off
		if chunk > u {
			chunk = u
		}
		ci := (base + cmds) % len(s.conns)
		perConn[ci] = append(perConn[ci], stripe{blockOff: off, blocks: chunk})
		cmds++
	}
	s.rr = (base + cmds) % len(s.conns)
	return perConn
}

// ---- reads ----

// rdPipe runs READ(10) commands on one connection: request up, target
// service, Data-In phase stepped segment-flight by segment-flight.
type rdPipe struct {
	s    *Session
	conn *tcpsim.Conn
	lba  int64
	bs   int
	buf  []byte

	cmds  []stripe
	i     int
	at    time.Duration
	cspan tracing.SpanRef // current sub-command's detached iscsi span
	tspan tracing.SpanRef // current Data-In phase's detached tcp span
	xfer  *tcpsim.Transfer
	resp  *PDU
	err   error
	end   time.Duration
}

func (p *rdPipe) done() bool                { return p.err != nil || p.i >= len(p.cmds) }
func (p *rdPipe) failed() error             { return p.err }
func (p *rdPipe) completion() time.Duration { return p.end }
func (p *rdPipe) nextAt() time.Duration {
	if p.xfer != nil {
		return p.xfer.NextAt()
	}
	return p.at
}

func (p *rdPipe) step() {
	s := p.s
	if p.xfer == nil {
		cmd := p.cmds[p.i]
		req := s.nextPDU(scsi.Read10(uint32(p.lba+int64(cmd.blockOff)), uint16(cmd.blocks)), nil, cmd.blocks*p.bs)
		// Full command CPU demand at issue (see command for why).
		at := s.charge(p.at, s.cost.PerCommand+time.Duration(cmd.blocks*p.bs/1024)*s.cost.PerKB)
		// The covering command span opens at issue and closes at status
		// time; everything this step causes nests under it.
		p.cspan = s.tracer.BeginDetached(at, tracing.LayerISCSI, "read10")
		s.tracer.Enter(p.cspan)
		defer s.tracer.Exit(p.cspan)
		s.net.CountMessage()
		leg := s.tracer.Begin(at, tracing.LayerTCP, "request")
		arrive, ok := p.conn.Transfer(at, req.WireSize(), simnet.ClientToServer)
		s.tracer.End(leg, arrive)
		if !ok {
			p.err = fmt.Errorf("iscsi: READ(10) request transport failed at lba=%d: %w", p.lba+int64(cmd.blockOff), simnet.ErrTransportBroken)
			s.tracer.EndDetached(p.cspan, arrive)
			return
		}
		resp, svcDone := s.target.HandleCommand(arrive, req)
		if resp.Status != scsi.StatusGood {
			p.err = fmt.Errorf("iscsi: READ(10) failed at lba=%d: %s", p.lba+int64(cmd.blockOff), string(resp.Data))
			s.tracer.EndDetached(p.cspan, svcDone)
			return
		}
		// The payload lives in the target's reused Data-In buffer, and other
		// pipes' commands run before this transfer ends: take it now. The
		// caller sees buf only if every transfer is delivered.
		copy(p.buf[cmd.blockOff*p.bs:], resp.Data)
		p.resp = resp
		p.tspan = s.tracer.BeginDetached(svcDone, tracing.LayerTCP, "data-in")
		p.xfer = p.conn.StartTransfer(svcDone, BHSSize+pad4(len(resp.Data)), simnet.ServerToClient)
		return
	}
	s.tracer.Enter(p.cspan)
	defer s.tracer.Exit(p.cspan)
	s.tracer.Enter(p.tspan)
	p.xfer.Step()
	if !p.xfer.Done() {
		s.tracer.Exit(p.tspan)
		return
	}
	s.tracer.EndDetached(p.tspan, p.xfer.Delivered())
	s.tracer.Exit(p.tspan)
	if p.xfer.Failed() {
		p.err = fmt.Errorf("iscsi: Data-In transport failed at lba=%d: %w", p.lba+int64(p.cmds[p.i].blockOff), simnet.ErrTransportBroken)
		s.tracer.EndDetached(p.cspan, p.xfer.Delivered())
		return
	}
	s.expStatSN = p.resp.StatSN
	done := p.xfer.Delivered()
	s.tracer.EndDetached(p.cspan, done)
	p.at = done
	if done > p.end {
		p.end = done
	}
	p.xfer, p.resp = nil, nil
	p.i++
}

// ReadBlocks implements blockdev.Device: the extent is striped across the
// session's connections and the Data-In phases overlap.
func (s *Session) ReadBlocks(start time.Duration, lba int64, buf []byte) (time.Duration, error) {
	if !s.loggedIn {
		return start, fmt.Errorf("iscsi: read before login")
	}
	bs := s.BlockSize()
	if len(buf)%bs != 0 {
		return start, fmt.Errorf("iscsi: read not block-multiple: %d", len(buf))
	}
	n := len(buf) / bs
	if n == 0 {
		return start, nil
	}
	perConn := s.assign(n)
	var pipes []pipe
	for ci, cmds := range perConn {
		if len(cmds) == 0 {
			continue
		}
		pipes = append(pipes, &rdPipe{s: s, conn: s.conns[ci], lba: lba, bs: bs, buf: buf,
			cmds: cmds, at: start, end: start})
	}
	return runPipes(pipes)
}

// ---- writes ----

// wrPipe runs WRITE(10) commands on one connection: the Data-Out phase
// (command PDU with immediate data) is stepped flight by flight, then the
// target executes and the status PDU returns.
type wrPipe struct {
	s    *Session
	conn *tcpsim.Conn
	lba  int64
	bs   int
	data []byte

	cmds  []stripe
	i     int
	at    time.Duration
	cspan tracing.SpanRef // current sub-command's detached iscsi span
	tspan tracing.SpanRef // current Data-Out phase's detached tcp span
	xfer  *tcpsim.Transfer
	req   *PDU
	err   error
	end   time.Duration
}

func (p *wrPipe) done() bool                { return p.err != nil || p.i >= len(p.cmds) }
func (p *wrPipe) failed() error             { return p.err }
func (p *wrPipe) completion() time.Duration { return p.end }
func (p *wrPipe) nextAt() time.Duration {
	if p.xfer != nil {
		return p.xfer.NextAt()
	}
	return p.at
}

func (p *wrPipe) step() {
	s := p.s
	if p.xfer == nil {
		cmd := p.cmds[p.i]
		payload := p.data[cmd.blockOff*p.bs : (cmd.blockOff+cmd.blocks)*p.bs]
		p.req = s.nextPDU(scsi.Write10(uint32(p.lba+int64(cmd.blockOff)), uint16(cmd.blocks)), payload, 0)
		at := s.charge(p.at, s.cost.PerCommand+time.Duration(len(payload)/1024)*s.cost.PerKB)
		// Covering command span at issue; see rdPipe.step.
		p.cspan = s.tracer.BeginDetached(at, tracing.LayerISCSI, "write10")
		s.tracer.Enter(p.cspan)
		p.tspan = s.tracer.BeginDetached(at, tracing.LayerTCP, "data-out")
		s.tracer.Exit(p.cspan)
		s.net.CountMessage()
		p.xfer = p.conn.StartTransfer(at, p.req.WireSize(), simnet.ClientToServer)
		return
	}
	s.tracer.Enter(p.cspan)
	defer s.tracer.Exit(p.cspan)
	s.tracer.Enter(p.tspan)
	p.xfer.Step()
	if !p.xfer.Done() {
		s.tracer.Exit(p.tspan)
		return
	}
	s.tracer.EndDetached(p.tspan, p.xfer.Delivered())
	s.tracer.Exit(p.tspan)
	if p.xfer.Failed() {
		p.err = fmt.Errorf("iscsi: Data-Out transport failed at lba=%d: %w", p.lba+int64(p.cmds[p.i].blockOff), simnet.ErrTransportBroken)
		s.tracer.EndDetached(p.cspan, p.xfer.Delivered())
		return
	}
	resp, svcDone := s.target.HandleCommand(p.xfer.Delivered(), p.req)
	if resp.Status != scsi.StatusGood {
		p.err = fmt.Errorf("iscsi: WRITE(10) failed at lba=%d: %s", p.lba+int64(p.cmds[p.i].blockOff), string(resp.Data))
		s.tracer.EndDetached(p.cspan, svcDone)
		return
	}
	leg := s.tracer.Begin(svcDone, tracing.LayerTCP, "status")
	reply, ok := p.conn.Transfer(svcDone, BHSSize+pad4(len(resp.Data)), simnet.ServerToClient)
	s.tracer.End(leg, reply)
	if !ok {
		p.err = fmt.Errorf("iscsi: status transport failed at lba=%d: %w", p.lba+int64(p.cmds[p.i].blockOff), simnet.ErrTransportBroken)
		s.tracer.EndDetached(p.cspan, reply)
		return
	}
	s.expStatSN = resp.StatSN
	s.tracer.EndDetached(p.cspan, reply)
	p.at = reply
	if reply > p.end {
		p.end = reply
	}
	p.xfer, p.req = nil, nil
	p.i++
}

// WriteBlocks implements blockdev.Device: the extent is striped across the
// session's connections and the Data-Out phases overlap.
func (s *Session) WriteBlocks(start time.Duration, lba int64, data []byte) (time.Duration, error) {
	if !s.loggedIn {
		return start, fmt.Errorf("iscsi: write before login")
	}
	bs := s.BlockSize()
	if len(data)%bs != 0 {
		return start, fmt.Errorf("iscsi: write not block-multiple: %d", len(data))
	}
	n := len(data) / bs
	if n == 0 {
		return start, nil
	}
	perConn := s.assign(n)
	var pipes []pipe
	for ci, cmds := range perConn {
		if len(cmds) == 0 {
			continue
		}
		pipes = append(pipes, &wrPipe{s: s, conn: s.conns[ci], lba: lba, bs: bs, data: data,
			cmds: cmds, at: start, end: start})
	}
	return runPipes(pipes)
}

// ---- the rest of blockdev.Device ----

// BlockSize implements blockdev.Device.
func (s *Session) BlockSize() int {
	if s.blockSize == 0 {
		return s.target.Device().BlockSize()
	}
	return s.blockSize
}

// NumBlocks implements blockdev.Device.
func (s *Session) NumBlocks() int64 {
	if s.numBlocks == 0 {
		return s.target.Device().NumBlocks()
	}
	return s.numBlocks
}

// Flush implements blockdev.Device via SYNCHRONIZE CACHE(10) on the next
// round-robin connection.
func (s *Session) Flush(start time.Duration) (time.Duration, error) {
	if !s.loggedIn {
		return start, fmt.Errorf("iscsi: flush before login")
	}
	ci := s.rr
	s.rr = (s.rr + 1) % len(s.conns)
	done, sense, ok := s.command(ci, start, scsi.SyncCache10(0, 0), nil, 0)
	if !ok {
		return done, fmt.Errorf("iscsi: SYNCHRONIZE CACHE failed: %s", string(sense))
	}
	return done, nil
}
