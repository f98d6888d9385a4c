package iscsi

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// lunBlocks is the size of the LUNs the tests below export: small, so a
// request past the end is cheap to make.
const lunBlocks = 16

// loggedIn returns a target over dev, charging cpu, with a session open,
// and the time the login completed.
func loggedIn(t *testing.T, dev *blockdev.Local, cpu *sim.CPU) (*Target, time.Duration) {
	t.Helper()
	target := NewTarget("iqn.test:vol", dev, cpu)
	resp, at := target.handleLogin(0, &pdu{Opcode: opLoginRequest, ITT: 1})
	if resp.Opcode != opLoginResp {
		t.Fatalf("login refused: %q", resp.Data)
	}
	return target, at
}

// A READ(10) past the LUN's end is refused with the device's own sense, at
// the time it was refused before, and sizes no buffer for the blocks it
// asked for (65535 of them would have kept 256 MB).
func TestReadPastTheEndSizesNoBuffer(t *testing.T) {
	const lba, blocks = lunBlocks - 1, 100
	for _, failReads := range []bool{false, true} {
		dev := blockdev.NewTestbedArray(lunBlocks)
		dev.FailReads = failReads
		target, at := loggedIn(t, dev, sim.NewCPU(1))
		req := &pdu{Opcode: opSCSICommand, Flags: flagFinal | flagRead, ITT: 2, CDB: scsi.Read10(lba, blocks).Encode()}
		resp, done := target.handleCommand(at, req)

		n := blocks * dev.BlockSize()
		_, want := dev.ReadBlocks(0, lba, make([]byte, n))
		cost := defaultTargetCosts()
		wantDone := at + cost.PerCommand + time.Duration(n/1024)*cost.PerKB
		if resp.Status != scsi.StatusCheckCondition || want == nil || string(resp.Data) != want.Error() || done != wantDone {
			t.Errorf("failReads=%v: status %#x sense %q at %v; want CHECK CONDITION %q at %v",
				failReads, resp.Status, resp.Data, done, want, wantDone)
		}
		if c := cap(target.dataIn); c != 0 {
			t.Errorf("failReads=%v: a refused read left a %d-byte buffer", failReads, c)
		}
	}
}

// FuzzTargetCommand serves any CDB, to the private LUN, the shared LUN or
// a LUN that does not exist, with any payload length and with or without
// another client's reservation on the shared LUN. The target never panics,
// answers GOOD, CHECK CONDITION or RESERVATION CONFLICT, changes no block
// but those a successful WRITE(10) names (to exactly its payload), and
// never holds a buffer larger than the LUN.
func FuzzTargetCommand(f *testing.F) {
	for _, c := range []scsi.CDB{
		scsi.Read10(0, 1),
		scsi.Read10(1<<20, 64),
		scsi.Read10(0, 65535),
		scsi.Write10(4, 8),
		scsi.Write10(lunBlocks-1, 2),
		scsi.SyncCache10(7, 0),
		scsi.Inquiry(96),
		scsi.ReadCapacity10(),
		{Op: scsi.OpTestUnitReady},
		scsi.PersistentReserveOut(scsi.PRActionReserve, scsi.TypeWriteExclusive),
		scsi.PersistentReserveOut(scsi.PRActionRelease, 0),
		{Op: scsi.OpPersistentReserveIn},
	} {
		cdb := c.Encode()
		for lun := uint64(0); lun <= 2; lun++ {
			f.Add(cdb[:], lun, uint32(c.Length)*4096, byte(lun))
		}
	}
	f.Fuzz(func(t *testing.T, cdb []byte, lun uint64, payload uint32, held byte) {
		luns := [2]*blockdev.Local{blockdev.NewTestbedArray(lunBlocks), blockdev.NewTestbedArray(lunBlocks)}
		images := [2][]byte{}
		for i, dev := range luns {
			images[i] = make([]byte, lunBlocks*dev.BlockSize())
			for b := range images[i] {
				images[i][b] = byte(b/dev.BlockSize() + 16*i + 1)
			}
			if _, err := dev.WriteBlocks(0, 0, images[i]); err != nil {
				t.Fatal(err)
			}
		}
		target, at := loggedIn(t, luns[0], nil)
		rsv := scsi.NewReservations()
		target.SetShared(luns[1], rsv, 0)
		if rtype := []byte{0, scsi.TypeWriteExclusive, scsi.TypeExclusiveAccess}[held%3]; rtype != 0 {
			rsv.Reserve(1, rtype)
		}

		req := &pdu{Opcode: opSCSICommand, Flags: flagFinal, ITT: 2, LUN: lun,
			Blocks: blocksOf(bytes.Repeat([]byte{0xEE}, int(payload%(3*lunBlocks*4096))), 4096)}
		copy(req.CDB[:], cdb)
		resp, _ := target.handleCommand(at, req)
		switch resp.Status {
		case scsi.StatusGood, scsi.StatusCheckCondition, scsi.StatusReservationConflict:
		default:
			t.Fatalf("status %#x", resp.Status)
		}
		if c := cap(target.dataIn); c > lunBlocks*4096 {
			t.Fatalf("target holds a %d-byte buffer for a %d-block LUN", c, lunBlocks)
		}

		// The blocks a successful WRITE(10) named hold its payload; every
		// other block of both LUNs is as it was.
		dec, _ := scsi.DecodeCDB(req.CDB)
		written := -1
		if resp.Status == scsi.StatusGood && dec.Op == scsi.OpWrite10 {
			written = 0
			if lun == sharedLUN {
				written = 1
			}
		}
		for i, dev := range luns {
			bs := int64(dev.BlockSize())
			got := make([]byte, bs)
			for b := int64(0); b < lunBlocks; b++ {
				if err := dev.Store().ReadAt(b, got); err != nil {
					t.Fatal(err)
				}
				want := images[i][b*bs : (b+1)*bs]
				if off := b - int64(dec.LBA); i == written && off >= 0 && off < int64(dec.Length) {
					want = req.Blocks[off]
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("LUN %d block %d changed by %+v (status %#x)", i, b, dec, resp.Status)
				}
			}
		}
	})
}
