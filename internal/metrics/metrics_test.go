package metrics

import (
	"testing"
	"testing/quick"
)

func TestNetStatsArithmetic(t *testing.T) {
	a := NetStats{Messages: 10, Frames: 20, BytesSent: 100, BytesRecv: 50, Retransmits: 2}
	b := NetStats{Messages: 4, Frames: 8, BytesSent: 30, BytesRecv: 20, Retransmits: 1}
	d := a.Sub(b)
	if d.Messages != 6 || d.Frames != 12 || d.Bytes() != 100 || d.Retransmits != 1 {
		t.Fatalf("sub: %+v", d)
	}
	var acc NetStats
	acc.Add(a)
	acc.Add(b)
	if acc.Messages != 14 || acc.Bytes() != 200 {
		t.Fatalf("add: %+v", acc)
	}
	if acc.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: Sub is the inverse of Add.
func TestQuickNetStatsAddSub(t *testing.T) {
	f := func(m1, f1, s1, r1, m2, f2, s2, r2 int32) bool {
		a := NetStats{Messages: int64(m1), Frames: int64(f1), BytesSent: int64(s1), Retransmits: int64(r1)}
		b := NetStats{Messages: int64(m2), Frames: int64(f2), BytesSent: int64(s2), Retransmits: int64(r2)}
		sum := a
		sum.Add(b)
		return sum.Sub(b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStats(t *testing.T) {
	a := DiskStats{Reads: 3, Writes: 4, BlocksRead: 30, BlocksWrit: 40, Seeks: 5}
	if a.Ops() != 7 {
		t.Fatalf("ops: %d", a.Ops())
	}
	d := a.Sub(DiskStats{Reads: 1, Writes: 1})
	if d.Reads != 2 || d.Writes != 3 {
		t.Fatalf("sub: %+v", d)
	}
	var acc DiskStats
	acc.add(a)
	if acc != a {
		t.Fatalf("add: %+v", acc)
	}
}
