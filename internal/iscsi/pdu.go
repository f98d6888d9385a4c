// Package iscsi implements a virtual-time iSCSI initiator and target: PDU
// framing with real 48-byte basic header segments, login/session
// establishment, SCSI command encapsulation, and a blockdev.Device adapter
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

import (
	"encoding/binary"
	"fmt"
)

// BHSSize is the size of the iSCSI basic header segment.
const BHSSize = 48

// PDU opcodes (initiator opcodes carry bit 0x40 when immediate).
const (
	OpNopOut       = 0x00
	OpSCSICommand  = 0x01
	OpLoginRequest = 0x03
	OpDataOut      = 0x05
	OpLogoutReq    = 0x06
	OpNopIn        = 0x20
	OpSCSIResponse = 0x21
	OpLoginResp    = 0x23
	OpDataIn       = 0x25
	OpLogoutResp   = 0x26
	OpR2T          = 0x31
)

// Flag bits.
const (
	FlagFinal = 0x80
	FlagRead  = 0x40
	FlagWrite = 0x20
)

// PDU is a decoded iSCSI protocol data unit. One struct covers the opcodes
// we implement; per-opcode field placement follows RFC 3720 in Encode.
type PDU struct {
	Opcode      byte
	Flags       byte
	Response    byte // SCSI Response PDU
	Status      byte // SCSI status
	LUN         uint64
	ITT         uint32 // initiator task tag
	TTT         uint32 // target transfer tag (R2T, DataOut)
	ExpectedLen uint32 // expected data transfer length (commands)
	CmdSN       uint32
	StatSN      uint32
	ExpStatSN   uint32
	ExpCmdSN    uint32
	MaxCmdSN    uint32
	DataSN      uint32
	BufferOff   uint32 // buffer offset (data PDUs)
	Residual    uint32
	CDB         [16]byte
	Data        []byte
}

// pad4 returns n rounded up to a multiple of 4 (data segments are padded).
func pad4(n int) int { return (n + 3) &^ 3 }

// WireSize returns the encoded size of the PDU including data padding.
func (p *PDU) WireSize() int { return BHSSize + pad4(len(p.Data)) }

// Encode produces the wire form of the PDU.
func (p *PDU) Encode() []byte {
	b := make([]byte, p.WireSize())
	b[0] = p.Opcode
	b[1] = p.Flags
	b[2] = p.Response
	b[3] = p.Status
	// TotalAHSLength = 0; DataSegmentLength is a 3-byte big-endian field.
	dl := len(p.Data)
	b[5] = byte(dl >> 16)
	b[6] = byte(dl >> 8)
	b[7] = byte(dl)
	binary.BigEndian.PutUint64(b[8:16], p.LUN)
	binary.BigEndian.PutUint32(b[16:20], p.ITT)
	switch p.Opcode {
	case OpSCSICommand:
		binary.BigEndian.PutUint32(b[20:24], p.ExpectedLen)
		binary.BigEndian.PutUint32(b[24:28], p.CmdSN)
		binary.BigEndian.PutUint32(b[28:32], p.ExpStatSN)
		copy(b[32:48], p.CDB[:])
	case OpSCSIResponse:
		binary.BigEndian.PutUint32(b[24:28], p.StatSN)
		binary.BigEndian.PutUint32(b[28:32], p.ExpCmdSN)
		binary.BigEndian.PutUint32(b[32:36], p.MaxCmdSN)
		binary.BigEndian.PutUint32(b[36:40], p.DataSN)
		binary.BigEndian.PutUint32(b[44:48], p.Residual)
	case OpDataIn, OpDataOut, OpR2T:
		binary.BigEndian.PutUint32(b[20:24], p.TTT)
		binary.BigEndian.PutUint32(b[24:28], p.StatSN)
		binary.BigEndian.PutUint32(b[28:32], p.ExpCmdSN)
		binary.BigEndian.PutUint32(b[32:36], p.MaxCmdSN)
		binary.BigEndian.PutUint32(b[36:40], p.DataSN)
		binary.BigEndian.PutUint32(b[40:44], p.BufferOff)
	case OpLoginRequest, OpLogoutReq, OpNopOut:
		binary.BigEndian.PutUint32(b[24:28], p.CmdSN)
		binary.BigEndian.PutUint32(b[28:32], p.ExpStatSN)
	case OpLoginResp, OpLogoutResp, OpNopIn:
		binary.BigEndian.PutUint32(b[24:28], p.StatSN)
		binary.BigEndian.PutUint32(b[28:32], p.ExpCmdSN)
		binary.BigEndian.PutUint32(b[32:36], p.MaxCmdSN)
	}
	copy(b[BHSSize:], p.Data)
	return b
}

// Decode parses a wire-format PDU.
func Decode(b []byte) (*PDU, error) {
	if len(b) < BHSSize {
		return nil, fmt.Errorf("iscsi: short PDU: %d bytes", len(b))
	}
	p := &PDU{
		Opcode:   b[0] &^ 0x40, // strip immediate bit
		Flags:    b[1],
		Response: b[2],
		Status:   b[3],
		LUN:      binary.BigEndian.Uint64(b[8:16]),
		ITT:      binary.BigEndian.Uint32(b[16:20]),
	}
	dl := int(b[5])<<16 | int(b[6])<<8 | int(b[7])
	if BHSSize+pad4(dl) > len(b) {
		return nil, fmt.Errorf("iscsi: data segment overruns PDU: dl=%d len=%d", dl, len(b))
	}
	switch p.Opcode {
	case OpSCSICommand:
		p.ExpectedLen = binary.BigEndian.Uint32(b[20:24])
		p.CmdSN = binary.BigEndian.Uint32(b[24:28])
		p.ExpStatSN = binary.BigEndian.Uint32(b[28:32])
		copy(p.CDB[:], b[32:48])
	case OpSCSIResponse:
		p.StatSN = binary.BigEndian.Uint32(b[24:28])
		p.ExpCmdSN = binary.BigEndian.Uint32(b[28:32])
		p.MaxCmdSN = binary.BigEndian.Uint32(b[32:36])
		p.DataSN = binary.BigEndian.Uint32(b[36:40])
		p.Residual = binary.BigEndian.Uint32(b[44:48])
	case OpDataIn, OpDataOut, OpR2T:
		p.TTT = binary.BigEndian.Uint32(b[20:24])
		p.StatSN = binary.BigEndian.Uint32(b[24:28])
		p.ExpCmdSN = binary.BigEndian.Uint32(b[28:32])
		p.MaxCmdSN = binary.BigEndian.Uint32(b[32:36])
		p.DataSN = binary.BigEndian.Uint32(b[36:40])
		p.BufferOff = binary.BigEndian.Uint32(b[40:44])
	case OpLoginRequest, OpLogoutReq, OpNopOut:
		p.CmdSN = binary.BigEndian.Uint32(b[24:28])
		p.ExpStatSN = binary.BigEndian.Uint32(b[28:32])
	case OpLoginResp, OpLogoutResp, OpNopIn:
		p.StatSN = binary.BigEndian.Uint32(b[24:28])
		p.ExpCmdSN = binary.BigEndian.Uint32(b[28:32])
		p.MaxCmdSN = binary.BigEndian.Uint32(b[32:36])
	default:
		return nil, fmt.Errorf("iscsi: unsupported opcode 0x%02x", p.Opcode)
	}
	if dl > 0 {
		p.Data = make([]byte, dl)
		copy(p.Data, b[BHSSize:BHSSize+dl])
	}
	return p, nil
}
