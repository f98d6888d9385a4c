// Package scsi implements the subset of the SCSI block command set that an
// iSCSI session needs: INQUIRY, TEST UNIT READY, READ CAPACITY(10),
// READ(10), WRITE(10) and SYNCHRONIZE CACHE(10). Command descriptor blocks
// (CDBs) use the real wire encodings so they can be round-tripped and
// validated; the simulated initiator and target exchange decoded forms but
// size their PDUs from the true encodings.
package scsi

import (
	"encoding/binary"
	"fmt"
)

// Operation codes for the commands we implement.
const (
	OpTestUnitReady        = 0x00
	OpInquiry              = 0x12
	OpReadCapacity10       = 0x25
	OpRead10               = 0x28
	OpWrite10              = 0x2A
	OpSyncCache10          = 0x35
	OpPersistentReserveIn  = 0x5E
	OpPersistentReserveOut = 0x5F
)

// Status codes (SAM-5).
const (
	StatusGood                = 0x00
	StatusCheckCondition      = 0x02
	StatusBusy                = 0x08
	StatusReservationConflict = 0x18
)

// PERSISTENT RESERVE OUT service actions (SPC-3 §6.12).
const (
	PRActionRegister = 0x00
	PRActionReserve  = 0x01
	PRActionRelease  = 0x02
	PRActionClear    = 0x03
	PRActionPreempt  = 0x04
)

// Persistent reservation types (SPC-3 table 107). Write-exclusive lets
// other initiators read but not write; exclusive-access blocks both.
const (
	TypeWriteExclusive  = 0x01
	TypeExclusiveAccess = 0x03
)

// CDB is a decoded command descriptor block.
type CDB struct {
	Op     byte
	LBA    uint32 // for READ/WRITE/SYNC CACHE
	Length uint16 // transfer length in blocks (READ/WRITE) or alloc length
	Action byte   // PERSISTENT RESERVE IN/OUT service action
	RType  byte   // persistent reservation type (PR OUT)
}

// CDBSize is the encoded size of all CDBs we use (10-byte commands padded
// to the 16-byte iSCSI CDB field).
const CDBSize = 16

// Encode produces the 16-byte wire form of the CDB.
func (c CDB) Encode() [CDBSize]byte {
	var b [CDBSize]byte
	b[0] = c.Op
	switch c.Op {
	case OpRead10, OpWrite10, OpSyncCache10:
		binary.BigEndian.PutUint32(b[2:6], c.LBA)
		binary.BigEndian.PutUint16(b[7:9], c.Length)
	case OpInquiry:
		binary.BigEndian.PutUint16(b[3:5], c.Length)
	case OpPersistentReserveIn, OpPersistentReserveOut:
		b[1] = c.Action & 0x1F
		b[2] = c.RType & 0x0F
		binary.BigEndian.PutUint16(b[7:9], c.Length)
	case OpReadCapacity10, OpTestUnitReady:
		// no operands
	}
	return b
}

// DecodeCDB parses a 16-byte CDB field.
func DecodeCDB(b [CDBSize]byte) (CDB, error) {
	c := CDB{Op: b[0]}
	switch c.Op {
	case OpRead10, OpWrite10, OpSyncCache10:
		c.LBA = binary.BigEndian.Uint32(b[2:6])
		c.Length = binary.BigEndian.Uint16(b[7:9])
	case OpInquiry:
		c.Length = binary.BigEndian.Uint16(b[3:5])
	case OpPersistentReserveIn, OpPersistentReserveOut:
		c.Action = b[1] & 0x1F
		c.RType = b[2] & 0x0F
		c.Length = binary.BigEndian.Uint16(b[7:9])
	case OpReadCapacity10, OpTestUnitReady:
	default:
		return c, fmt.Errorf("scsi: unsupported opcode 0x%02x", c.Op)
	}
	return c, nil
}

// Read10 builds a READ(10) CDB.
func Read10(lba uint32, blocks uint16) CDB {
	return CDB{Op: OpRead10, LBA: lba, Length: blocks}
}

// Write10 builds a WRITE(10) CDB.
func Write10(lba uint32, blocks uint16) CDB {
	return CDB{Op: OpWrite10, LBA: lba, Length: blocks}
}

// SyncCache10 builds a SYNCHRONIZE CACHE(10) CDB covering [lba, lba+blocks).
// A zero length means "whole device".
func SyncCache10(lba uint32, blocks uint16) CDB {
	return CDB{Op: OpSyncCache10, LBA: lba, Length: blocks}
}

// Inquiry builds an INQUIRY CDB with the given allocation length.
func Inquiry(alloc uint16) CDB { return CDB{Op: OpInquiry, Length: alloc} }

// ReadCapacity10 builds a READ CAPACITY(10) CDB.
func ReadCapacity10() CDB { return CDB{Op: OpReadCapacity10} }

// PersistentReserveOut builds a PR OUT CDB for the given service action
// and reservation type.
func PersistentReserveOut(action, rtype byte) CDB {
	return CDB{Op: OpPersistentReserveOut, Action: action, RType: rtype}
}

// CapacityData encodes the 8-byte READ CAPACITY(10) response: the LBA of
// the last block and the block size in bytes.
func CapacityData(lastLBA uint32, blockSize uint32) [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:4], lastLBA)
	binary.BigEndian.PutUint32(b[4:8], blockSize)
	return b
}

// ParseCapacityData decodes a READ CAPACITY(10) response.
func ParseCapacityData(b [8]byte) (lastLBA, blockSize uint32) {
	return binary.BigEndian.Uint32(b[0:4]), binary.BigEndian.Uint32(b[4:8])
}

// InquiryData returns a minimal standard INQUIRY payload identifying a
// direct-access block device with the given vendor/product strings.
func InquiryData(vendor, product string) []byte {
	buf := make([]byte, 36)
	buf[0] = 0x00 // peripheral: direct access block device
	buf[2] = 0x05 // SPC-3
	buf[4] = 31   // additional length
	copyPad := func(dst []byte, s string) {
		for i := range dst {
			if i < len(s) {
				dst[i] = s[i]
			} else {
				dst[i] = ' '
			}
		}
	}
	copyPad(buf[8:16], vendor)
	copyPad(buf[16:32], product)
	copyPad(buf[32:36], "1.0")
	return buf
}
