// Package iscsi implements a virtual-time iSCSI initiator and target: PDUs
// charged at their RFC 3720 size (a 48-byte basic header segment plus the
// padded data segment), login/session establishment, SCSI command
// encapsulation, and a blockdev.Device adapter
// so a client-side filesystem can mount a remote volume exactly as in the
// paper's Figure 2(b).
//
// There is one Initiator and it runs over one of two wires: a fluid
// datagram per PDU (NewInitiator), or an MC/S session of N tcpsim
// connections (NewSession). Everything that is SCSI or iSCSI is written
// once in initiator.go; what a frame costs and how loss is recovered is
// the wire's (wire.go).
//
// One SCSI command round trip counts as one protocol transaction
// ("message" in the paper's tables), regardless of how many data PDUs the
// transfer needs; frame and byte counters capture the rest.
package iscsi

// bhsSize is the size of the iSCSI basic header segment.
const bhsSize = 48

// PDU opcodes (initiator opcodes carry bit 0x40 when immediate).
const (
	opNopOut       = 0x00
	opSCSICommand  = 0x01
	opLoginRequest = 0x03
	opDataOut      = 0x05
	opLogoutReq    = 0x06
	opNopIn        = 0x20
	opSCSIResponse = 0x21
	opLoginResp    = 0x23
	opDataIn       = 0x25
	opLogoutResp   = 0x26
	opR2T          = 0x31
)

// Flag bits.
const (
	flagFinal = 0x80
	flagRead  = 0x40
	flagWrite = 0x20
)

// PDU is an iSCSI protocol data unit as the simulator passes it: the header
// fields the initiator and target read, and the data segment. It is never
// encoded; wireSize charges its exact RFC 3720 size. A WRITE(10)'s data
// segment is Blocks, the whole blocks it writes, by reference: the initiator's
// caller owns them, and the target only reads them.
type pdu struct {
	Opcode      byte
	Flags       byte
	Status      byte // SCSI status
	LUN         uint64
	ITT         uint32 // initiator task tag
	ExpectedLen uint32 // expected data transfer length (commands)
	CmdSN       uint32
	StatSN      uint32
	ExpStatSN   uint32
	ExpCmdSN    uint32
	MaxCmdSN    uint32
	CDB         [16]byte
	Data        []byte
	Blocks      [][]byte
}

// pad4 returns n rounded up to a multiple of 4 (data segments are padded).
func pad4(n int) int { return (n + 3) &^ 3 }

// dataLen returns the length of the data segment.
func (p *pdu) dataLen() int {
	n := len(p.Data)
	for _, b := range p.Blocks {
		n += len(b)
	}
	return n
}

// wireSize returns the encoded size of the PDU including data padding.
func (p *pdu) wireSize() int { return bhsSize + pad4(p.dataLen()) }
