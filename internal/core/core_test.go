package core

import (
	"bytes"
	"testing"
)

// small options for test speed
func testOpts() Options { return Options{DeviceBlocks: 65536} }

// TestTable2Shapes verifies the central Table 2 relationships on a few
// representative operations.
func TestTable2Shapes(t *testing.T) {
	for _, name := range []string{"mkdir", "chdir", "stat"} {
		op, err := findMicroOp(name)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[Stack]int64{}
		for _, s := range []Stack{NFSv2, NFSv3, NFSv4, ISCSI} {
			n, err := microCount(testOpts(), op, 0, s, false)
			if err != nil {
				t.Fatalf("%s on %v: %v", name, s, err)
			}
			counts[s] = n
		}
		t.Logf("%s cold d0: v2=%d v3=%d v4=%d iscsi=%d", name,
			counts[NFSv2], counts[NFSv3], counts[NFSv4], counts[ISCSI])
		// On a freshly-formatted volume small-file inodes can share the
		// root's inode-table block, shaving a transaction off iSCSI's
		// cold cost; allow one message of slack on that comparison.
		if counts[ISCSI]+1 < counts[NFSv2] {
			t.Errorf("%s: cold iSCSI (%d) below NFS v2 (%d)", name, counts[ISCSI], counts[NFSv2])
		}
		if counts[NFSv4] < counts[NFSv3] {
			t.Errorf("%s: cold v4 (%d) below v3 (%d)", name, counts[NFSv4], counts[NFSv3])
		}
	}
}

// TestFigure3Monotonic verifies amortized message counts fall with batch
// size for a couple of operations.
func TestFigure3Monotonic(t *testing.T) {
	series, err := RunFigure3(testOpts(), []int{1, 16, 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: %d points", s.Op, len(s.Points))
		}
		first, last := s.Points[0].PerOpMsgs, s.Points[2].PerOpMsgs
		t.Logf("%-8s amortized: n=1 %.2f  n=256 %.3f", s.Op, first, last)
		if last >= first {
			t.Errorf("%s: no aggregation benefit (%.2f -> %.2f)", s.Op, first, last)
		}
		if last > 1.0 {
			t.Errorf("%s: amortized cost at n=256 is %.2f, want < 1", s.Op, last)
		}
	}
}

// TestFigure5WriteFlatness verifies v3's async writes keep the cold-write
// panel flat while v2 grows past the 8 KB transfer limit.
func TestFigure5WriteFlatness(t *testing.T) {
	series, err := RunFigure5(testOpts(), []int{4096, 65536})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if s.Panel != "cold-write" {
			continue
		}
		small, big := s.Points[0].Messages, s.Points[1].Messages
		t.Logf("cold-write 4K:  v2=%d v3=%d iscsi=%d", small[NFSv2], small[NFSv3], small[ISCSI])
		t.Logf("cold-write 64K: v2=%d v3=%d iscsi=%d", big[NFSv2], big[NFSv3], big[ISCSI])
		if big[NFSv2] < small[NFSv2]+7 {
			t.Errorf("v2 64K write should need ~8 more sync transfers: %d -> %d", small[NFSv2], big[NFSv2])
		}
		if big[NFSv3] > small[NFSv3]+2 {
			t.Errorf("v3 cold-write panel should stay flat: %d -> %d", small[NFSv3], big[NFSv3])
		}
	}
}

// TestRenderers smoke-tests the text renderers.
func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	rows := []SyscallRow{{Op: "mkdir",
		Depth0: map[Stack]int64{NFSv2: 2, NFSv3: 2, NFSv4: 4, ISCSI: 7},
		Depth3: map[Stack]int64{NFSv2: 5, NFSv3: 5, NFSv4: 10, ISCSI: 13}}}
	RenderSyscallTable(&buf, "Table 2", rows)
	if buf.Len() == 0 || !bytes.Contains(buf.Bytes(), []byte("mkdir")) {
		t.Fatal("empty render")
	}
}

// TestPairShapes runs the paper's conformance checks for the two NFS v3 /
// iSCSI tables at reduced scale: a pair stored under the wrong stack fails
// every one of them.
func TestPairShapes(t *testing.T) {
	t4, err := RunTable4(testOpts(), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := RunTable5(testOpts(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if fails := RenderChecks(&out, "Tables 4 and 5", append(CheckTable4Shapes(t4), CheckTable5Shapes(t5)...)); fails > 0 {
		t.Errorf("%d shape checks failed:\n%s", fails, out.String())
	}
}
