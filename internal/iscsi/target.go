package iscsi

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// costModel captures per-request CPU demands. The paper measured the iSCSI
// server path (network + SCSI server layer + block driver) at roughly half
// the NFS server path; these constants encode that asymmetry and are shared
// with the testbed package.
type costModel struct {
	PerCommand time.Duration // fixed cost per SCSI command
	PerKB      time.Duration // data handling (copy/checksum) per KB
}

// defaultTargetCosts returns the iSCSI server path cost: network layer +
// SCSI server layer + low-level driver (three layer crossings).
func defaultTargetCosts() costModel {
	return costModel{PerCommand: 35 * time.Microsecond, PerKB: 4 * time.Microsecond}
}

// Target is an iSCSI target exposing one LUN backed by a Local device,
// plus (optionally) a second LUN shared across all clients' targets for
// cross-client contention experiments (see SetShared).
type Target struct {
	Name string // IQN

	dev  *blockdev.Local
	cpu  *sim.CPU
	cost costModel

	// Shared-LUN state: every client's target exports the same device
	// as sharedLUN and enforces the same persistent-reservation table,
	// so a reservation taken through one session conflicts commands
	// arriving through any other.
	shared   *blockdev.Local
	rsv      *scsi.Reservations
	clientID int

	statSN   uint32
	expCmdSN uint32
	loggedIn bool
	down     bool
	// FailCommands injects CHECK CONDITION on every command when set.
	FailCommands bool

	dataIn []byte // READ(10) payload buffer, reused (see handleCommand)
}

// sharedLUN is the LUN number the shared contention volume is exported
// under (LUN 0 remains the client's private volume).
const sharedLUN = 1

// NewTarget builds a target for dev, charging CPU demands to cpu (which may
// be nil for untimed unit tests).
func NewTarget(name string, dev *blockdev.Local, cpu *sim.CPU) *Target {
	return &Target{Name: name, dev: dev, cpu: cpu, cost: defaultTargetCosts()}
}

// SetShared exports dev as sharedLUN under the reservation table rsv,
// identifying commands from this target's (sole) initiator as client.
// The reservation table is persistent SCSI state: it survives target
// crashes, unlike the login/sequence state Crash drops.
func (t *Target) SetShared(dev *blockdev.Local, rsv *scsi.Reservations, client int) {
	t.shared = dev
	t.rsv = rsv
	t.clientID = client
}

// Device exposes the backing device (tests use it to corrupt/verify bytes).
func (t *Target) Device() *blockdev.Local { return t.dev }

// Crash models target power loss: the machine stops serving and every
// piece of volatile session state — logins, command sequence windows —
// vanishes. The backing device (and anything it committed) survives.
// Commands and logins fail until Restart; after Restart initiators must
// log in again before the target accepts commands.
func (t *Target) Crash() {
	t.down = true
	t.loggedIn = false
	t.statSN = 0
	t.expCmdSN = 0
}

// Restart brings a crashed target back into service (sessions stay gone).
func (t *Target) Restart() { t.down = false }

// LoggedIn reports whether an initiator currently holds a session (fault
// recovery uses it to detect logins a target crash invalidated).
func (t *Target) LoggedIn() bool { return t.loggedIn }

// charge runs CPU demand and returns the completion time.
func (t *Target) charge(at time.Duration, d time.Duration) time.Duration {
	if t.cpu == nil {
		return at
	}
	return t.cpu.Run(at, d)
}

// handle serves one initiator PDU: a login request or a SCSI command.
func (t *Target) handle(at time.Duration, req *pdu) (pdu, time.Duration) {
	if req.Opcode == opLoginRequest {
		return t.handleLogin(at, req)
	}
	return t.handleCommand(at, req)
}

// handleLogin processes a login request PDU and returns the response (a
// CHECK CONDITION reject while the target is crashed).
func (t *Target) handleLogin(at time.Duration, req *pdu) (pdu, time.Duration) {
	if t.down {
		return t.check(req, "target: down"), at
	}
	done := t.charge(at, t.cost.PerCommand)
	t.loggedIn = true
	t.statSN++
	resp := pdu{
		Opcode: opLoginResp,
		Flags:  flagFinal,
		ITT:    req.ITT,
		StatSN: t.statSN,
		Data:   []byte("TargetName=" + t.Name + "\x00MaxRecvDataSegmentLength=262144\x00"),
	}
	return resp, done
}

// handleCommand executes one SCSI command PDU and returns the response PDU
// (with inline Data-In payload for reads) and the service completion time.
// The response is a value, so a command costs the target no heap object.
// A READ(10) payload is the target's one Data-In buffer: it is valid until
// the next handleCommand, so initiators copy it out before issuing another.
func (t *Target) handleCommand(at time.Duration, req *pdu) (pdu, time.Duration) {
	if t.down {
		return t.check(req, "target: down"), at
	}
	if !t.loggedIn {
		return t.check(req, "target: command before login"), at
	}
	cdb, err := scsi.DecodeCDB(req.CDB)
	if err != nil {
		return t.check(req, err.Error()), at
	}
	if t.FailCommands {
		return t.check(req, "target: injected command failure"), at
	}
	t.expCmdSN = req.CmdSN + 1
	dev := t.dev
	if req.LUN == sharedLUN {
		if t.shared == nil {
			return t.check(req, "target: no shared LUN exported"), at
		}
		dev = t.shared
	}
	bs := dev.BlockSize()
	done := t.charge(at, t.cost.PerCommand)

	resp := pdu{Opcode: opSCSIResponse, Flags: flagFinal, ITT: req.ITT, Status: scsi.StatusGood}
	switch cdb.Op {
	case scsi.OpTestUnitReady:
		// nothing to do
	case scsi.OpInquiry:
		resp.Data = scsi.InquiryData("REPRO", "SIMVOL")
	case scsi.OpReadCapacity10:
		cap := scsi.CapacityData(uint32(dev.NumBlocks()-1), uint32(bs))
		resp.Data = cap[:]
	case scsi.OpPersistentReserveOut:
		if req.LUN != sharedLUN {
			return t.check(req, "target: reservations only on the shared LUN"), done
		}
		switch cdb.Action {
		case scsi.PRActionReserve:
			if !t.rsv.Reserve(t.clientID, cdb.RType) {
				return t.conflict(req, done)
			}
		case scsi.PRActionRelease:
			t.rsv.Release(t.clientID)
		default:
			return t.check(req, fmt.Sprintf("target: unsupported PR action 0x%02x", cdb.Action)), done
		}
	case scsi.OpPersistentReserveIn:
		if req.LUN != sharedLUN {
			return t.check(req, "target: reservations only on the shared LUN"), done
		}
		holder, rtype := t.rsv.Holder()
		buf := make([]byte, 8)
		buf[0] = byte(holder >> 24)
		buf[1] = byte(holder >> 16)
		buf[2] = byte(holder >> 8)
		buf[3] = byte(holder)
		buf[4] = rtype
		resp.Data = buf
	case scsi.OpRead10:
		if req.LUN == sharedLUN && !t.rsv.AllowRead(t.clientID) {
			return t.conflict(req, done)
		}
		n := int(cdb.Length) * bs
		done = t.charge(done, time.Duration(n/1024)*t.cost.PerKB)
		// The buffer grows only for a read inside the LUN. One past its end
		// gets the device's own refusal: the injected failure when set,
		// which needs no buffer, or the range check's sense.
		buf := t.dataIn[:0]
		if int64(cdb.LBA)+int64(cdb.Length) <= dev.NumBlocks() {
			if n > len(t.dataIn) {
				t.dataIn = make([]byte, n)
			}
			buf = t.dataIn[:n]
		} else if !dev.FailReads {
			return t.check(req, fmt.Sprintf("blockdev: read beyond device: lba=%d n=%d cap=%d",
				cdb.LBA, cdb.Length, dev.NumBlocks())), done
		}
		done, err = dev.ReadBlocks(done, int64(cdb.LBA), buf)
		if err != nil {
			return t.check(req, err.Error()), done
		}
		resp.Data = buf
	case scsi.OpWrite10:
		if req.LUN == sharedLUN && !t.rsv.AllowWrite(t.clientID) {
			return t.conflict(req, done)
		}
		want := int(cdb.Length) * bs
		if got := req.dataLen(); got < want || len(req.Blocks) < int(cdb.Length) {
			return t.check(req, fmt.Sprintf("target: short write payload %d < %d", got, want)), done
		}
		done = t.charge(done, time.Duration(want/1024)*t.cost.PerKB)
		// The initiator's blocks go down by reference: the device copies
		// what it keeps.
		done, err = dev.WriteRun(done, int64(cdb.LBA), req.Blocks[:cdb.Length])
		if err != nil {
			return t.check(req, err.Error()), done
		}
	case scsi.OpSyncCache10:
		done, err = dev.Flush(done)
		if err != nil {
			return t.check(req, err.Error()), done
		}
	default:
		return t.check(req, fmt.Sprintf("target: unsupported op 0x%02x", cdb.Op)), done
	}
	t.statSN++
	resp.StatSN = t.statSN
	resp.ExpCmdSN = t.expCmdSN
	resp.MaxCmdSN = t.expCmdSN + 64
	return resp, done
}

// conflict builds a RESERVATION CONFLICT response: the command was
// legal but another initiator's persistent reservation excludes it. The
// status sequence advances — the command was serviced, just refused.
func (t *Target) conflict(req *pdu, done time.Duration) (pdu, time.Duration) {
	t.statSN++
	return pdu{
		Opcode:   opSCSIResponse,
		Flags:    flagFinal,
		ITT:      req.ITT,
		Status:   scsi.StatusReservationConflict,
		StatSN:   t.statSN,
		ExpCmdSN: t.expCmdSN,
		MaxCmdSN: t.expCmdSN + 64,
	}, done
}

// check builds a CHECK CONDITION response carrying sense text.
func (t *Target) check(req *pdu, msg string) pdu {
	return pdu{
		Opcode: opSCSIResponse,
		Flags:  flagFinal,
		ITT:    req.ITT,
		Status: scsi.StatusCheckCondition,
		Data:   []byte(msg),
	}
}
