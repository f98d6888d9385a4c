package ext3

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"repro/internal/blockdev"
)

// TestBufferFitsChunkSlots: blockdev.chunkSlots (76) is chosen so that a
// chunk of 80-byte buffers nearly fills a malloc size class; the journal's
// running flag sits in the padding after meta. A field added to buffer
// changes that fit, and bulk-write's bytes per pass show it.
func TestBufferFitsChunkSlots(t *testing.T) {
	if n := unsafe.Sizeof(buffer{}); n != 80 {
		t.Fatalf("buffer is %d bytes, want 80 (see blockdev.chunkSlots)", n)
	}
}

// TestJournalAddsABufferOnce: a buffer journaled twice in one transaction
// is one entry of its descriptor, in the order buffers joined; after the
// commit it is free to join the next transaction.
func TestJournalAddsABufferOnce(t *testing.T) {
	dev := blockdev.NewTestbedArray(32768)
	if _, err := Mkfs(0, dev, Options{}); err != nil {
		t.Fatal(err)
	}
	fs, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := fs.journal
	journal := func(lbas ...int64) {
		t.Helper()
		for _, lba := range lbas {
			b, _, err := fs.bc.get(0, lba, false)
			if err != nil {
				t.Fatal(err)
			}
			b.data[0]++
			fs.bc.markDirty(b, true)
			j.add(b)
		}
	}
	commit := func(want ...int64) {
		t.Helper()
		head := j.head
		if _, err := j.commit(0); err != nil {
			t.Fatal(err)
		}
		desc := make([]byte, BlockSize)
		if _, err := dev.ReadBlocks(0, j.start+head, desc); err != nil {
			t.Fatal(err)
		}
		var homes []int64
		for i := uint32(0); i < binary.BigEndian.Uint32(desc[16:]); i++ {
			homes = append(homes, int64(binary.BigEndian.Uint64(desc[20+8*i:])))
		}
		if len(homes) != len(want) {
			t.Fatalf("descriptor names %v, want %v", homes, want)
		}
		for i := range want {
			if homes[i] != want[i] {
				t.Fatalf("descriptor names %v, want %v", homes, want)
			}
		}
		if len(j.running) != 0 {
			t.Fatalf("%d buffers still running after the commit", len(j.running))
		}
	}
	a, b := fs.groupStart(0), fs.groupStart(1)
	journal(a, b, a, b, a)
	commit(a, b)
	journal(b, b)
	commit(b)
	if pa := fs.bc.peek(a); pa == nil || pa.running || pa.pins != 1 {
		t.Fatalf("block %d after its commit: %+v, want resident, not running, one pin", a, pa)
	}
}

// TestCheckpointWritesTheCommittedImages: a committed transaction's images
// are frozen when its body goes to the journal. A buffer changed again
// afterwards, in the running transaction, does not reach its home block
// through the checkpoint: home gets what was committed, as a replay of the
// journal would write it.
func TestCheckpointWritesTheCommittedImages(t *testing.T) {
	dev := blockdev.NewTestbedArray(32768)
	if _, err := Mkfs(0, dev, Options{}); err != nil {
		t.Fatal(err)
	}
	fs, _, err := Mount(0, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, lba := fs.journal, fs.groupStart(1)
	b, _, err := fs.bc.get(0, lba, false)
	if err != nil {
		t.Fatal(err)
	}
	b.data[0] = 0x11
	fs.bc.markDirty(b, true)
	j.add(b)
	if _, err := j.commit(0); err != nil {
		t.Fatal(err)
	}
	committed := bytes.Clone(b.data)
	b.data[0] = 0x22 // the next transaction, not committed
	fs.bc.markDirty(b, true)
	j.add(b)
	if _, err := j.checkpointAll(0); err != nil {
		t.Fatal(err)
	}
	home := make([]byte, BlockSize)
	if _, err := dev.ReadBlocks(0, lba, home); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(home, committed) {
		t.Fatalf("the checkpoint wrote %#x.. home, the transaction committed %#x..", home[0], committed[0])
	}
}
