package blockdev

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
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

// Zeroing, a WriteRun of references to the shared block of zeros, must be
// WriteBlocks of a zero buffer in everything but host cost: the same
// completion times, array counters, store content, blocks back in the pool,
// and the same refusals. Two LUNs of one kind run the same script, one
// through each call.
func TestWriteZerosMatchesWriteBlocksOfZeros(t *testing.T) {
	type dev struct {
		*Local
		pool  *Pool
		zeros func(at time.Duration, lba int64, n int) (time.Duration, error)
	}
	mk := func() *dev {
		d := &dev{Local: NewClusterArraySized(2, 1024, 2)[1], pool: &Pool{}} // a LUN at an offset
		d.Store().SetPool(d.pool)
		return d
	}
	a, b := mk(), mk()
	a.zeros = func(at time.Duration, lba int64, n int) (time.Duration, error) {
		return a.WriteBlocks(at, lba, make([]byte, n*BlockSize))
	}
	b.zeros = func(at time.Duration, lba int64, n int) (time.Duration, error) {
		return b.WriteRun(at, lba, zeroRefs[:n])
	}
	var at [2]time.Duration
	both := func(what string, op func(d *dev, at time.Duration) (time.Duration, error)) {
		t.Helper()
		var errs [2]error
		for i, d := range []*dev{a, b} {
			at[i], errs[i] = op(d, at[i])
		}
		if (errs[0] == nil) != (errs[1] == nil) || at[0] != at[1] {
			t.Fatalf("%s: WriteBlocks done=%v err=%v, zero run done=%v err=%v", what, at[0], errs[0], at[1], errs[1])
		}
		if sa, sb := a.Stats(), b.Stats(); sa != sb {
			t.Fatalf("%s: array counters %+v against %+v", what, sa, sb)
		}
		if a.Store().Populated() != b.Store().Populated() || a.pool.Len() != b.pool.Len() {
			t.Fatalf("%s: store holds %d / %d blocks, pool %d / %d", what,
				a.Store().Populated(), b.Store().Populated(), a.pool.Len(), b.pool.Len())
		}
	}
	zeros := func(lba int64, n int) func(*dev, time.Duration) (time.Duration, error) {
		return func(d *dev, at time.Duration) (time.Duration, error) { return d.zeros(at, lba, n) }
	}
	// Private blocks at 10..29, constant ones at 30..39, the rest absent.
	both("mixed", func(d *dev, at time.Duration) (time.Duration, error) {
		buf := make([]byte, 20*BlockSize)
		for i := range buf {
			buf[i] = byte(i) ^ byte(i>>12)
		}
		return d.WriteBlocks(at, 10, buf)
	})
	both("constant", func(d *dev, at time.Duration) (time.Duration, error) {
		return d.WriteBlocks(at, 30, bytes.Repeat([]byte{0x5A}, 10*BlockSize))
	})
	both("over absent, private and constant blocks", zeros(0, 64))
	if n, back := b.Store().Populated(), b.pool.Len(); n != 0 || back != 20 {
		t.Fatalf("after zeroing: %d blocks populated, %d back in the pool; want 0 and 20", n, back)
	}
	both("again, all absent", zeros(0, 64))
	both("the last block", zeros(1023, 1))
	both("crossing the end", zeros(1000, 64))
	both("negative lba", zeros(-1, 2))
	a.FailWrites, b.FailWrites = true, true
	both("injected failure", zeros(0, 8))
	a.FailWrites, b.FailWrites = false, false
	a.Store().Release()
	b.Store().Release()
	both("released store", zeros(0, 8))
	if _, err := b.WriteRun(0, 0, zeroRefs[:8]); err == nil {
		t.Fatal("a zero run on a released store accepted")
	}
}
