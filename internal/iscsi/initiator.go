package iscsi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/scsi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/tracing"
)

// opName labels a SCSI command span after its CDB opcode.
func opName(op byte) string {
	switch op {
	case scsi.OpRead10:
		return "read10"
	case scsi.OpWrite10:
		return "write10"
	case scsi.OpSyncCache10:
		return "sync_cache"
	case scsi.OpInquiry:
		return "inquiry"
	case scsi.OpReadCapacity10:
		return "read_capacity"
	case scsi.OpTestUnitReady:
		return "tur"
	case scsi.OpPersistentReserveOut:
		return "pr_out"
	case scsi.OpPersistentReserveIn:
		return "pr_in"
	}
	return "scsi"
}

// ErrReservationConflict reports a shared-LUN command refused by another
// initiator's persistent reservation. Contention workloads poll on it
// the way NFS clients poll a denied lock.
var ErrReservationConflict = errors.New("iscsi: reservation conflict")

var errNotLoggedIn = errors.New("iscsi: command before login")

// maxTransferBlocks caps a single SCSI command's transfer (256 KB of 4 KB
// blocks), matching the MaxRecvDataSegmentLength we negotiate at login.
// The filesystem's write coalescing (mean ~128 KB requests, per the paper's
// Table 4 analysis) fits in one command.
const maxTransferBlocks = 64

// Initiator is the client-side iSCSI endpoint. It implements
// blockdev.Device over the simulated network, so the client's ext3 mounts
// it like a local disk — the essence of the block-access architecture in
// the paper's Figure 1(b).
//
// There is one initiator: it owns everything that is SCSI or iSCSI and
// not transport — task tags and sequence numbers, PDU build, login
// discovery, the block command set, the shared-LUN reservation commands
// and the mapping from what came back to the caller's error — and runs it
// over one of two wires (wire.go): the fluid datagram NewInitiator gives
// it, or the MC/S session of N tcpsim connections NewSession gives it,
// the configuration Kumar et al. vary under one initiator.
type Initiator struct {
	net    *simnet.Network
	target *Target
	cpu    *sim.CPU
	cost   costModel
	tracer *tracing.Tracer
	wire   wire

	itt       uint32
	cmdSN     uint32
	expStatSN uint32
	loggedIn  bool

	blockSize int
	numBlocks int64

	// refs holds the block references of the WRITE in flight when the caller
	// gave contiguous data; it is cleared when the command is done.
	refs [][]byte
}

// defaultInitiatorCosts returns the iSCSI client path cost (network +
// initiator driver).
func defaultInitiatorCosts() costModel {
	return costModel{PerCommand: 25 * time.Microsecond, PerKB: 4 * time.Microsecond}
}

// NewInitiator creates an initiator speaking to target over net as one
// fluid datagram per PDU, charging client CPU demand to cpu (nil for
// untimed tests). A frame lost under failure injection is recovered by
// re-driving the exchange after a doubling timeout.
func NewInitiator(net *simnet.Network, target *Target, cpu *sim.CPU) *Initiator {
	i := &Initiator{net: net, target: target, cpu: cpu, cost: defaultInitiatorCosts()}
	i.wire = &fluidWire{i: i}
	return i
}

// NewSession creates an initiator whose wire is an MC/S session (multiple
// connections per session) of nConns TCP connections to target over net:
// commands are dispatched round-robin across the connections and each
// connection carries its command's PDUs start to finish (connection
// allegiance, RFC 3720 §3.2.2); a multi-command transfer is dealt across
// the connections and the data phases proceed concurrently, modeling the
// command-queue depth a real initiator keeps outstanding. Window
// dynamics, delayed ACKs and RTO-driven retransmission shape every
// transfer, and loss is recovered below the SCSI layer.
func NewSession(net *simnet.Network, target *Target, cpu *sim.CPU, nConns int, tcpCfg tcpsim.Config) *Initiator {
	i := &Initiator{net: net, target: target, cpu: cpu, cost: defaultInitiatorCosts()}
	w := &tcpWire{i: i}
	for n := 0; n < max(nConns, 1); n++ {
		w.lanes = append(w.lanes, tcpsim.NewConn(net, tcpCfg))
	}
	i.wire = w
	return i
}

// Counters exports initiator-level counters for the metrics event stream
// (metrics.SubsysISCSI): SCSI commands issued (CmdSN-numbered, so MC/S
// striped sub-commands count individually) and, on the fluid wire only,
// loss-recovery retries. The TCP wire's per-connection counters are
// reported separately under metrics.SubsysTCP via Stats.
func (i *Initiator) Counters() map[string]int64 {
	m := map[string]int64{"commands": int64(i.cmdSN)}
	if w, ok := i.wire.(*fluidWire); ok {
		m["retries"] = w.retries
	}
	return m
}

// SetTracer attaches a tracer: every SCSI command becomes a
// tracing.LayerISCSI span with the network frames and target work it
// causes nested beneath. The fluid wire's span covers the whole exchange,
// loss-recovery timeouts included; the TCP wire's synchronous commands
// add request/response tracing.LayerTCP legs, and its striped
// sub-commands — whose pipelines interleave and complete out of issue
// order — are detached spans opened at issue time, each synchronous
// pipeline step bracketed by Enter/Exit. Critical-path attribution
// therefore breaks an op down per layer on both wires.
func (i *Initiator) SetTracer(t *tracing.Tracer) { i.tracer = t }

// Conns reports the wire's TCP connection count (0 on the fluid wire).
func (i *Initiator) Conns() int { return len(i.wire.conns()) }

// Abort severs every TCP connection of the wire — the target crashed or
// reset them (fault injection) — and the login goes with them: the
// endpoint needs a fresh login (a new initiator) afterwards, like a real
// MC/S initiator recovering a dropped session. The fluid wire holds no
// connection state to sever; its commands find the target down instead.
func (i *Initiator) Abort() {
	conns := i.wire.conns()
	for _, c := range conns {
		c.Break()
	}
	if len(conns) > 0 {
		i.loggedIn = false
	}
}

// Broken reports whether the wire has TCP connections and every one of
// them has died — fault recovery uses it to decide a remount is needed.
func (i *Initiator) Broken() bool {
	conns := i.wire.conns()
	for _, c := range conns {
		if c.Established() {
			return false
		}
	}
	return len(conns) > 0
}

// Stats returns the TCP counters aggregated across the wire's
// connections (zero on the fluid wire).
func (i *Initiator) Stats() tcpsim.Stats {
	var agg tcpsim.Stats
	for _, c := range i.wire.conns() {
		agg.Add(c.Stats())
	}
	return agg
}

// Gauges exports the wire's instantaneous congestion state for the
// health scraper (metrics.SubsysGauge): congestion window and un-ACKed
// bytes summed across the MC/S connections, nil on the fluid wire (the
// station skips that scrape).
func (i *Initiator) Gauges(now time.Duration) map[string]float64 {
	conns := i.wire.conns()
	if len(conns) == 0 {
		return nil
	}
	agg := map[string]float64{"cwnd_segs": 0, "inflight_bytes": 0}
	for _, c := range conns {
		for k, v := range c.Gauges(now) {
			agg[k] += v
		}
	}
	return agg
}

func (i *Initiator) charge(at time.Duration, d time.Duration) time.Duration {
	if i.cpu == nil {
		return at
	}
	return i.cpu.Run(at, d)
}

// issue charges the client CPU for issuing one command that handles n
// bytes of data (copy and checksum) at issue time.
func (i *Initiator) issue(at time.Duration, n int) time.Duration {
	return i.charge(at, i.cost.PerCommand+time.Duration(n/1024)*i.cost.PerKB)
}

// Login brings the wire up, performs the login exchange and discovers
// capacity with two commands on the leading connection (INQUIRY, READ
// CAPACITY(10)), as a real initiator does at mount time.
func (i *Initiator) Login(at time.Duration) (time.Duration, error) {
	i.itt++
	done, resp, err := i.wire.login(at, pdu{Opcode: opLoginRequest, ITT: i.itt, CmdSN: i.cmdSN,
		Data: []byte("InitiatorName=iqn.2004.repro.client\x00SessionType=Normal\x00")})
	if err != nil {
		return done, err
	}
	if resp.Status != scsi.StatusGood {
		return done, fmt.Errorf("iscsi: login rejected: %s", resp.Data)
	}
	i.loggedIn = true
	i.expStatSN = resp.StatSN

	done, _, err = i.run(done, i.nextPDU(0, scsi.Inquiry(96), nil, 96), true)
	if err != nil {
		return done, err
	}
	done, data, err := i.run(done, i.nextPDU(0, scsi.ReadCapacity10(), nil, 8), true)
	if err != nil {
		return done, err
	}
	var cap8 [8]byte
	if copy(cap8[:], data) < len(cap8) {
		return done, fmt.Errorf("iscsi: short READ CAPACITY data: %d bytes", len(data))
	}
	last, bs := scsi.ParseCapacityData(cap8)
	i.numBlocks = int64(last) + 1
	i.blockSize = int(bs)
	return done, nil
}

// nextPDU allocates the task tag and command sequence number of one SCSI
// command and builds its PDU, with blocks as the Data-Out of a WRITE.
// Command PDUs travel by value so that one command costs the host no
// allocation of its own.
func (i *Initiator) nextPDU(lun uint64, cdb scsi.CDB, blocks [][]byte, expectIn int) pdu {
	i.itt++
	i.cmdSN++
	return pdu{
		Opcode:      opSCSICommand,
		Flags:       flagFinal,
		LUN:         lun,
		ITT:         i.itt,
		CmdSN:       i.cmdSN,
		ExpStatSN:   i.expStatSN,
		CDB:         cdb.Encode(),
		Blocks:      blocks,
		ExpectedLen: uint32(expectIn),
	}
}

// extent is what one transfer moves: buf, which a READ fills, or blocks,
// the whole blocks a WRITE sends by reference.
type extent struct {
	buf    []byte
	blocks [][]byte
	write  bool
}

// size returns the extent's length in bytes.
func (e extent) size() int {
	if !e.write {
		return len(e.buf)
	}
	n := 0
	for _, b := range e.blocks {
		n += len(b)
	}
	return n
}

// slice returns bytes lo to hi of the extent, both on block boundaries.
func (e extent) slice(lo, hi, bs int) extent {
	if e.write {
		e.blocks = e.blocks[lo/bs : hi/bs]
	} else {
		e.buf = e.buf[lo:hi]
	}
	return e
}

// rwPDU builds the one READ(10) or WRITE(10) that moves ext, a run of
// whole blocks no longer than maxTransferBlocks, at lba.
func (i *Initiator) rwPDU(lun uint64, lba int64, ext extent) pdu {
	if ext.write {
		return i.nextPDU(lun, scsi.Write10(uint32(lba), uint16(len(ext.blocks))), ext.blocks, 0)
	}
	return i.nextPDU(lun, scsi.Read10(uint32(lba), uint16(len(ext.buf)/i.BlockSize())), nil, len(ext.buf))
}

// status is the one mapping from what a wire brought back for req to the
// error the caller sees. ok=false means the frames were lost for good
// (recovery retries exhausted, or a dead connection): a collapse, which
// wraps simnet.ErrTransportBroken. RESERVATION CONFLICT is the sentinel
// shared-LUN callers poll on; any other status is a hard error carrying
// the target's sense text.
func status(req, resp *pdu, ok bool) error {
	switch {
	case !ok:
		return fmt.Errorf("iscsi: %s lost: %w", describe(req), simnet.ErrTransportBroken)
	case resp.Status == scsi.StatusGood:
		return nil
	case resp.Status == scsi.StatusReservationConflict:
		return ErrReservationConflict
	}
	return fmt.Errorf("iscsi: %s failed: %s", describe(req), resp.Data)
}

// describe names a command PDU for an error message.
func describe(req *pdu) string {
	cdb, _ := scsi.DecodeCDB(req.CDB)
	return fmt.Sprintf("%s lun=%d lba=%d", opName(cdb.Op), req.LUN, cdb.LBA)
}

// run carries one synchronous command over the wire (on the leading
// connection when leading is set: login-time discovery) and returns its
// completion time and Data-In payload. The payload is the target's
// buffer: valid until the next command.
func (i *Initiator) run(at time.Duration, req pdu, leading bool) (time.Duration, []byte, error) {
	done, resp, ok := i.wire.command(at, req, leading)
	if err := status(&req, &resp, ok); err != nil {
		return done, nil, err
	}
	i.expStatSN = resp.StatSN
	return done, resp.Data, nil
}

// rw moves ext with one command: READ(10) into it or WRITE(10) from it.
func (i *Initiator) rw(at time.Duration, lun uint64, lba int64, ext extent) (time.Duration, error) {
	done, data, err := i.run(at, i.rwPDU(lun, lba, ext), false)
	if err == nil && !ext.write {
		copy(ext.buf, data)
	}
	return done, err
}

// BlockSize implements blockdev.Device.
func (i *Initiator) BlockSize() int {
	if i.blockSize == 0 {
		return i.target.Device().BlockSize()
	}
	return i.blockSize
}

// NumBlocks implements blockdev.Device.
func (i *Initiator) NumBlocks() int64 {
	if i.numBlocks == 0 {
		return i.target.Device().NumBlocks()
	}
	return i.numBlocks
}

// ReadBlocks implements blockdev.Device: READ(10) commands of at most
// maxTransferBlocks each, one after another on the fluid wire, dealt
// across the connections with overlapping Data-In phases on the TCP wire.
func (i *Initiator) ReadBlocks(start time.Duration, lba int64, buf []byte) (time.Duration, error) {
	return i.transfer(start, lba, extent{buf: buf})
}

// WriteBlocks writes data, whole blocks, at lba: WriteRun of data cut into
// blocks.
func (i *Initiator) WriteBlocks(start time.Duration, lba int64, data []byte) (time.Duration, error) {
	i.refs = blockdev.Cut(i.refs[:0], 0, data)
	defer clear(i.refs)
	return i.WriteRun(start, lba, i.refs)
}

// WriteRun implements blockdev.Device: WRITE(10) commands, chunked and
// scheduled like ReadBlocks, whose Data-Out is blocks by reference, down to
// the target's device.
func (i *Initiator) WriteRun(start time.Duration, lba int64, blocks [][]byte) (time.Duration, error) {
	return i.transfer(start, lba, extent{blocks: blocks, write: true})
}

// transfer splits an extent into commands: it divides across the wire's
// connections so their data phases overlap, each command capped at
// maxTransferBlocks; how the commands are scheduled is the wire's.
func (i *Initiator) transfer(start time.Duration, lba int64, ext extent) (time.Duration, error) {
	if !i.loggedIn {
		return start, errNotLoggedIn
	}
	bs := i.BlockSize()
	size := ext.size()
	if size%bs != 0 {
		return start, fmt.Errorf("iscsi: transfer not block-multiple: %d", size)
	}
	if _, ok := blockdev.CutSize(0, ext.blocks); !ok {
		return start, fmt.Errorf("iscsi: write of %d blocks is not of whole blocks", len(ext.blocks))
	}
	if size == 0 {
		return start, nil
	}
	lanes := max(i.Conns(), 1)
	unit := min((size/bs+lanes-1)/lanes, maxTransferBlocks)
	return i.wire.transfer(start, lba, ext, unit*bs)
}

// flush is a write barrier: SYNCHRONIZE CACHE(10).
func (i *Initiator) flush(start time.Duration) (time.Duration, error) {
	if !i.loggedIn {
		return start, errNotLoggedIn
	}
	done, _, err := i.run(start, i.nextPDU(0, scsi.SyncCache10(0, 0), nil, 0), false)
	return done, err
}

// ---- shared-LUN operations (cross-client contention) ----

// Reserve attempts a persistent reservation on the shared LUN. A false
// return with nil error means another initiator holds it — poll again,
// like a denied NFS lock.
func (i *Initiator) Reserve(at time.Duration, rtype byte) (bool, time.Duration, error) {
	done, err := i.reserveOut(at, scsi.PRActionReserve, rtype)
	if errors.Is(err, ErrReservationConflict) {
		return false, done, nil
	}
	return err == nil, done, err
}

// Release drops this initiator's reservation on the shared LUN.
func (i *Initiator) Release(at time.Duration) (time.Duration, error) {
	return i.reserveOut(at, scsi.PRActionRelease, 0)
}

func (i *Initiator) reserveOut(at time.Duration, action, rtype byte) (time.Duration, error) {
	if !i.loggedIn {
		return at, errNotLoggedIn
	}
	done, _, err := i.run(at, i.nextPDU(sharedLUN, scsi.PersistentReserveOut(action, rtype), nil, 0), false)
	return done, err
}

// SharedRead reads from the shared LUN (raw blocks, no filesystem —
// block storage has no sharable cache coherence, which is the paper's
// point) with a single command. Returns ErrReservationConflict when
// excluded by another initiator's exclusive-access reservation.
func (i *Initiator) SharedRead(at time.Duration, lba int64, buf []byte) (time.Duration, error) {
	return i.sharedRW(at, lba, buf, false)
}

// SharedWrite writes to the shared LUN; ErrReservationConflict when a
// foreign reservation excludes the write.
func (i *Initiator) SharedWrite(at time.Duration, lba int64, data []byte) (time.Duration, error) {
	done, err := i.sharedRW(at, lba, data, true)
	clear(i.refs)
	return done, err
}

func (i *Initiator) sharedRW(at time.Duration, lba int64, data []byte, write bool) (time.Duration, error) {
	bs := i.BlockSize()
	if len(data)%bs != 0 || len(data)/bs > maxTransferBlocks {
		return at, fmt.Errorf("iscsi: bad shared extent %d", len(data))
	}
	ext := extent{buf: data}
	if write {
		i.refs = blockdev.Cut(i.refs[:0], 0, data)
		ext = extent{blocks: i.refs, write: true}
	}
	return i.rw(at, sharedLUN, lba, ext)
}
