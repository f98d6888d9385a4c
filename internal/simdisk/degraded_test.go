package simdisk

import (
	"testing"
	"time"
)

// small array helper: 5 members, tiny capacity so rebuilds finish fast.
func smallRAID(blocks int64) *RAID5 {
	p := Ultra160()
	p.Blocks = blocks
	return NewRAID5(p)
}

// TestDegradedReadAmplifies: after a member fails, reads whose data lived
// on it fan out to every surviving member (parity reconstruction), so
// degraded reads are slower and the degraded_reads counter moves.
func TestDegradedReadAmplifies(t *testing.T) {
	healthy := smallRAID(10000)
	degraded := smallRAID(10000)
	if err := degraded.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded() || degraded.FailedMember() != 0 {
		t.Fatal("FailDisk did not mark the array degraded")
	}
	// Read a whole stripe width: some run lands on the failed member.
	var hDone, dDone time.Duration
	for lba := int64(0); lba < 256; lba += 32 {
		ht, err := healthy.Read(hDone, lba, 32)
		if err != nil {
			t.Fatal(err)
		}
		hDone = ht
		dt, err := degraded.Read(dDone, lba, 32)
		if err != nil {
			t.Fatal(err)
		}
		dDone = dt
	}
	if degraded.Stats().DegradedReads == 0 {
		t.Fatal("no degraded reads counted across a full stripe sweep")
	}
	if dDone <= hDone {
		t.Fatalf("degraded reads (%v) should be slower than healthy (%v)", dDone, hDone)
	}
}

// TestDegradedWritesSkipDeadMember: both write paths survive a failed
// data or parity member and still complete.
func TestDegradedWritesSkipDeadMember(t *testing.T) {
	r := smallRAID(10000)
	if err := r.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	// Partial-stripe writes across the failed member (RMW path) and a
	// full-stripe write (coalesced path).
	var at time.Duration
	for lba := int64(0); lba < 128; lba += 4 {
		d, err := r.Write(at, lba, 4)
		if err != nil {
			t.Fatal(err)
		}
		at = d
	}
	if _, err := r.Write(at, 1000, 64); err != nil {
		t.Fatal(err)
	}
	if r.FailDisk(3) == nil {
		t.Fatal("double failure accepted")
	}
}

// TestRebuildRestoresArray: RebuildStep moves reconstruction traffic
// through the member arms, reports monotone progress, and returns the
// array to healthy once every row is rebuilt.
func TestRebuildRestoresArray(t *testing.T) {
	r := smallRAID(512) // 64 rows of 8-block units per member
	if err := r.StartRebuild(); err == nil {
		t.Fatal("rebuild on healthy array accepted")
	}
	if err := r.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := r.StartRebuild(); err != nil {
		t.Fatal(err)
	}
	if r.RebuildProgress() != 0 || !r.Rebuilding() {
		t.Fatalf("rebuild not armed: progress=%v", r.RebuildProgress())
	}
	var at time.Duration
	prev := 0.0
	for i := 0; i < 1000; i++ {
		done, finished, err := r.RebuildStep(at, 8)
		if err != nil {
			t.Fatal(err)
		}
		if done < at {
			t.Fatalf("rebuild time went backwards: %v < %v", done, at)
		}
		at = done
		if p := r.RebuildProgress(); p < prev {
			t.Fatalf("rebuild progress went backwards: %v < %v", p, prev)
		} else {
			prev = p
		}
		if finished {
			break
		}
	}
	if r.Degraded() || r.Rebuilding() {
		t.Fatal("rebuild did not restore the array")
	}
	if r.Stats().RebuildBlocks == 0 {
		t.Fatal("rebuild moved no blocks")
	}
	if at == 0 {
		t.Fatal("rebuild consumed no virtual time")
	}
	// A finished array serves reads without reconstruction.
	pre := r.Stats().DegradedReads
	if _, err := r.Read(at, 0, 32); err != nil {
		t.Fatal(err)
	}
	if r.Stats().DegradedReads != pre {
		t.Fatal("healthy array still reconstructing")
	}
}
