package simdisk

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSequentialBeatsRandom(t *testing.T) {
	d := newDisk(Ultra160())
	// Sequential streaming after the first positioning.
	var seq time.Duration
	at := time.Duration(0)
	for i := 0; i < 64; i++ {
		at, _ = d.IO(at, int64(i), 1, false)
	}
	seq = at
	d2 := newDisk(Ultra160())
	at = 0
	for i := 0; i < 64; i++ {
		at, _ = d2.IO(at, int64(i*100000), 1, false)
	}
	if at < seq*4 {
		t.Fatalf("random (%v) should be much slower than sequential (%v)", at, seq)
	}
}

func TestIOBeyondDeviceFails(t *testing.T) {
	p := Ultra160()
	p.Blocks = 100
	d := newDisk(p)
	if _, err := d.IO(0, 99, 2, true); err == nil {
		t.Fatal("overflow accepted")
	}
}

func TestRAID5Geometry(t *testing.T) {
	p := Ultra160()
	p.Blocks = 10000
	r := NewRAID5(p)
	if r.Members() != 5 || r.Blocks() != 40000 {
		t.Fatalf("%d members, logical capacity %d", r.Members(), r.Blocks())
	}
}

// Property: locate maps every logical block to a valid member and never
// maps two logical blocks of the same stripe row to the parity disk.
func TestQuickRAID5Mapping(t *testing.T) {
	p := Ultra160()
	p.Blocks = 100000
	r := NewRAID5(p)
	f := func(lbaRaw uint32) bool {
		lba := int64(lbaRaw) % r.Blocks()
		d, plba, stripe := r.locate(lba)
		if d < 0 || d >= 5 || plba < 0 {
			return false
		}
		return d != r.parityDisk(stripe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every logical block maps to a unique (disk, plba) pair.
func TestQuickRAID5Bijective(t *testing.T) {
	p := Ultra160()
	p.Blocks = 4096
	r := NewRAID5(p)
	seen := map[[2]int64]int64{}
	for lba := int64(0); lba < 2048; lba++ {
		d, plba, _ := r.locate(lba)
		key := [2]int64{int64(d), plba}
		if prev, ok := seen[key]; ok {
			t.Fatalf("blocks %d and %d collide at disk %d plba %d", prev, lba, d, plba)
		}
		seen[key] = lba
	}
}

func TestSmallWritePaysRMW(t *testing.T) {
	p := Ultra160()
	p.Blocks = 100000
	r := NewRAID5(p)
	// Partial-stripe write: member stats show reads (the RMW penalty).
	if _, err := r.Write(0, 12345, 1); err != nil {
		t.Fatal(err)
	}
	var reads int64
	for _, d := range r.disks {
		reads += d.Stats().Reads
	}
	if reads == 0 {
		t.Fatal("partial-stripe write skipped read-modify-write")
	}
}

func TestFullStripeAvoidsRMW(t *testing.T) {
	p := Ultra160()
	p.Blocks = 100000
	r := NewRAID5(p)
	if _, err := r.Write(0, 0, 32); err != nil { // exactly one stripe row
		t.Fatal(err)
	}
	var reads int64
	for _, d := range r.disks {
		reads += d.Stats().Reads
	}
	if reads != 0 {
		t.Fatalf("full-stripe write performed %d preliminary reads", reads)
	}
}

func TestWritebackCacheAbsorbsLatency(t *testing.T) {
	p := Ultra160()
	p.Blocks = 100000
	r := NewRAID5(p)
	done, err := r.Write(0, 777, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The requester sees controller latency, not the ~7ms mechanical RMW.
	if done > 2*time.Millisecond {
		t.Fatalf("write-back cache not absorbing: %v", done)
	}
	if r.Busy() < 2*time.Millisecond {
		t.Fatalf("destage work vanished: busy=%v", r.Busy())
	}
}

func TestStreamingAppendsMergeInNVRAM(t *testing.T) {
	p := Ultra160()
	p.Blocks = 100000
	r := NewRAID5(p)
	// A journal-like append stream: contiguous small writes.
	at := time.Duration(0)
	var err error
	for i := 0; i < 16; i++ {
		at, err = r.Write(at, int64(i*2), 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	var reads int64
	for _, d := range r.disks {
		reads += d.Stats().Reads
	}
	// Only the stream head (before the tail is tracked) may pay RMW.
	if reads > 2 {
		t.Fatalf("streaming appends paid RMW: %d reads", reads)
	}
}
