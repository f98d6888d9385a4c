package blockdev

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestStoreSparseReadsZero(t *testing.T) {
	s := NewStore(100, 4096)
	buf := make([]byte, 4096)
	if err := s.ReadAt(50, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
	if s.Populated() != 0 {
		t.Fatal("read materialized a block")
	}
}

func TestStoreBounds(t *testing.T) {
	s := NewStore(10, 4096)
	buf := make([]byte, 4096)
	if err := s.ReadAt(10, buf); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := s.WriteAt(-1, buf); err == nil {
		t.Fatal("negative write accepted")
	}
}

// Property: write-then-read returns the same bytes for any block/content.
func TestQuickStoreRoundTrip(t *testing.T) {
	s := NewStore(256, 4096)
	f := func(lbaRaw uint8, fill byte) bool {
		lba := int64(lbaRaw)
		data := bytes.Repeat([]byte{fill}, 4096)
		if err := s.WriteAt(lba, data); err != nil {
			return false
		}
		got := make([]byte, 4096)
		if err := s.ReadAt(lba, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalDeviceTimedIO(t *testing.T) {
	dev := NewTestbedArray(1024)
	data := bytes.Repeat([]byte{7}, 8192)
	done, err := dev.WriteBlocks(0, 10, data)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("write took no virtual time")
	}
	got := make([]byte, 8192)
	if _, err := dev.ReadBlocks(done, 10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("device corrupted data")
	}
	if dev.Stats().Writes == 0 || dev.Stats().Reads == 0 {
		t.Fatalf("stats not counted: %+v", dev.Stats())
	}
}

func TestFailureInjection(t *testing.T) {
	dev := NewTestbedArray(1024)
	dev.FailReads = true
	if _, err := dev.ReadBlocks(0, 0, make([]byte, 4096)); err == nil {
		t.Fatal("injected read failure ignored")
	}
	dev.FailReads = false
	dev.FailWrites = true
	if _, err := dev.WriteBlocks(0, 0, make([]byte, 4096)); err == nil {
		t.Fatal("injected write failure ignored")
	}
}

func TestUnalignedBuffersRejected(t *testing.T) {
	dev := NewTestbedArray(1024)
	if _, err := dev.ReadBlocks(0, 0, make([]byte, 100)); err == nil {
		t.Fatal("unaligned read accepted")
	}
	if _, err := dev.WriteBlocks(0, 0, make([]byte, 5000)); err == nil {
		t.Fatal("unaligned write accepted")
	}
}

// A zero write to an absent block stores nothing (absent already reads as
// zeros); a zero write over a present block really zeroes it.
func TestStoreZeroWrites(t *testing.T) {
	s := NewStore(16, 4096)
	zero := make([]byte, 4096)
	got := make([]byte, 4096)
	if err := s.WriteAt(3, zero); err != nil {
		t.Fatal(err)
	}
	if s.Populated() != 0 {
		t.Fatalf("zero write to an absent block populated %d blocks", s.Populated())
	}
	if err := s.ReadAt(3, got); err != nil || !bytes.Equal(got, zero) {
		t.Fatalf("absent block after zero write: err=%v", err)
	}
	// A single non-zero byte anywhere, the last one included, is data.
	for i, at := range []int{0, 1, 4095} {
		data := make([]byte, 4096)
		data[at] = 1
		if err := s.WriteAt(int64(4+i), data); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadAt(int64(4+i), got); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("block with byte %d set not stored", at)
		}
	}
	if s.Populated() != 3 {
		t.Fatalf("populated = %d, want 3", s.Populated())
	}
	if err := s.WriteAt(4, zero); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(4, got); err != nil || !bytes.Equal(got, zero) {
		t.Fatal("zero write over a present block did not zero it")
	}
	if err := s.WriteAt(16, zero); err == nil {
		t.Fatal("out-of-range zero write accepted")
	}
}

// A buffer that is not exactly one block is an error in both directions,
// before anything changes: once the representation depends on the whole
// block's content, a short write (stale tail), a long write (silent
// truncation) or a long read buffer (stale bytes past the block) has no
// meaning. Local already rejects non-multiples; this is the Store itself.
func TestStoreRejectsWrongLengths(t *testing.T) {
	s := NewStore(8, 4096)
	mixed := make([]byte, 4096)
	for i := range mixed {
		mixed[i] = byte(i)
	}
	if err := s.WriteAt(1, mixed); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(2, bytes.Repeat([]byte{0x5A}, 4096)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 4095, 4097, 8192} {
		for lba := int64(0); lba < 3; lba++ { // absent, private, constant
			if err := s.WriteAt(lba, bytes.Repeat([]byte{7}, n)); err == nil {
				t.Errorf("write of %d bytes to block %d accepted", n, lba)
			}
			buf := bytes.Repeat([]byte{0xCC}, n)
			if err := s.ReadAt(lba, buf); err == nil {
				t.Errorf("read into %d bytes from block %d accepted", n, lba)
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{0xCC}, n)) {
				t.Errorf("rejected read of %d bytes touched the buffer", n)
			}
		}
	}
	got := make([]byte, 4096)
	if err := s.ReadAt(1, got); err != nil || !bytes.Equal(got, mixed) {
		t.Fatal("rejected writes changed the private block")
	}
	if err := s.ReadAt(2, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, 4096)) {
		t.Fatal("rejected writes changed the constant block")
	}
	if s.Populated() != 2 {
		t.Fatalf("populated = %d after rejected writes, want 2", s.Populated())
	}
}

// A request that crosses the end of the device fails whole: no prefix is
// stored or read, and the array is not charged.
func TestLocalRejectsRequestsCrossingTheEnd(t *testing.T) {
	dev := NewTestbedArray(1024)
	data := bytes.Repeat([]byte{9}, 4*4096)
	for _, lba := range []int64{1022, 1024, -1} {
		if _, err := dev.WriteBlocks(0, lba, data); err == nil {
			t.Fatalf("write of 4 blocks at lba %d accepted", lba)
		}
		if _, err := dev.ReadBlocks(0, lba, make([]byte, len(data))); err == nil {
			t.Fatalf("read of 4 blocks at lba %d accepted", lba)
		}
	}
	if n := dev.Store().Populated(); n != 0 {
		t.Fatalf("rejected writes stored %d blocks", n)
	}
	if st := dev.Stats(); st.Writes != 0 || st.Reads != 0 {
		t.Fatalf("rejected requests charged the array: %+v", st)
	}
	if _, err := dev.WriteBlocks(0, 1020, data); err != nil {
		t.Fatalf("write ending at the last block: %v", err)
	}
}
