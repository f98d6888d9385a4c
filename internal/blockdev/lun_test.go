package blockdev

import (
	"bytes"
	"testing"
)

// TestClusterArrayLUNIsolation verifies the LUNs of a shared array hold
// independent content but contend for the same spindles.
func TestClusterArrayLUNIsolation(t *testing.T) {
	luns := NewClusterArraySized(3, 1024, 3)
	if len(luns) != 3 {
		t.Fatalf("%d luns", len(luns))
	}
	raid := luns[0].RAID()
	for i, l := range luns {
		if l.RAID() != raid {
			t.Fatalf("lun %d on a different array", i)
		}
		if l.NumBlocks() != 1024 {
			t.Fatalf("lun %d capacity %d", i, l.NumBlocks())
		}
	}
	// Same LBA, different LUNs: content must not alias.
	blk := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 4096) }
	for i, l := range luns {
		if _, err := l.WriteBlocks(0, 7, blk(byte('A'+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range luns {
		buf := make([]byte, 4096)
		if _, err := l.ReadBlocks(0, 7, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, blk(byte('A'+i))) {
			t.Fatalf("lun %d content aliased", i)
		}
	}
	// Out-of-range I/O on one LUN must not reach a neighbor's partition.
	if _, err := luns[0].WriteBlocks(0, 1024, blk(0xFF)); err == nil {
		t.Fatal("write beyond LUN capacity succeeded")
	}
	// Shared timing: the array saw every request.
	if s := raid.Stats(); s.Writes != 3 || s.Reads != 3 {
		t.Fatalf("array stats %+v", s)
	}
}

// TestClusterArrayOddCapacityTop verifies a stripe-unaligned aggregate
// capacity still allows I/O at the very top of each LUN (member capacity
// is rounded up to the stripe unit).
func TestClusterArrayOddCapacityTop(t *testing.T) {
	luns := NewClusterArraySized(1, 1028, 1)
	buf := make([]byte, 4096)
	if _, err := luns[0].WriteBlocks(0, 1027, buf); err != nil {
		t.Fatalf("top-of-LUN write: %v", err)
	}
	if _, err := luns[0].ReadBlocks(0, 1027, buf); err != nil {
		t.Fatalf("top-of-LUN read: %v", err)
	}
}
