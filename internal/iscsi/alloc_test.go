package iscsi

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// pattern returns n bytes that no block of which repeats one byte, so a
// Store keeps each written block private instead of sharing a constant.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/4096)
	}
	return b
}

// blocksOf cuts data into blocks of bs bytes, the last one short when data
// is not whole blocks: a WRITE(10)'s Data-Out.
func blocksOf(data []byte, bs int) [][]byte {
	var blocks [][]byte
	for off := 0; off < len(data); off += bs {
		blocks = append(blocks, data[off:min(off+bs, len(data))])
	}
	return blocks
}

// Warm READ(10) and WRITE(10) commands cost the target no heap object: the
// response is a value and the Data-In buffer is reused.
func TestWarmCommandsAllocateNothing(t *testing.T) {
	dev := blockdev.NewTestbedArray(lunBlocks)
	target, at := loggedIn(t, dev, sim.NewCPU(1))
	data := pattern(8 * dev.BlockSize())
	for _, c := range []struct {
		name string
		req  pdu
	}{
		{"write", pdu{Opcode: opSCSICommand, Flags: flagFinal | flagWrite, CDB: scsi.Write10(4, 8).Encode(), Blocks: blocksOf(data, dev.BlockSize())}},
		{"read", pdu{Opcode: opSCSICommand, Flags: flagFinal | flagRead, CDB: scsi.Read10(4, 8).Encode()}},
	} {
		serve := func() {
			c.req.ITT++
			c.req.CmdSN++
			var resp pdu
			if resp, at = target.handleCommand(at, &c.req); resp.Status != scsi.StatusGood {
				t.Fatalf("%s: status %#x: %s", c.name, resp.Status, resp.Data)
			}
		}
		serve()
		if n := testing.AllocsPerRun(100, serve); n != 0 {
			t.Errorf("warm %s: %v allocations per command, want 0", c.name, n)
		}
	}
}

// A striped transfer over a 4-connection session keeps its pipes and their
// data phases off the heap once the connections' scratch is warm.
func TestStripedTransferAllocatesNothingWhenWarm(t *testing.T) {
	s, _, at := newSessionPair(t, sessionNet(time.Millisecond, 0, 1), 4, 0)
	data := pattern(64 * s.BlockSize())
	buf := make([]byte, len(data))
	var err error
	move := func() {
		if at, err = s.WriteBlocks(at, 0, data); err != nil {
			t.Fatal(err)
		}
		if at, err = s.ReadBlocks(at, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	move()
	if n := testing.AllocsPerRun(50, move); n != 0 {
		t.Errorf("4-connection write and read of 256 KB: %v allocations, want 0", n)
	}
}
