package testbed

import (
	"bytes"
	"testing"
	"time"
)

func mk(t *testing.T, k Kind) *Testbed {
	t.Helper()
	tb, err := New(Config{Kind: k, DeviceBlocks: 65536}) // 256 MB volume
	if err != nil {
		t.Fatalf("testbed %v: %v", k, err)
	}
	return tb
}

func TestBothStacksBasicOps(t *testing.T) {
	for _, k := range AllKinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			tb := mk(t, k)
			if err := tb.Mkdir("/dir"); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			payload := bytes.Repeat([]byte("x1y2"), 3000) // 12 KB
			if err := tb.WriteFile("/dir/file", payload); err != nil {
				t.Fatalf("write file: %v", err)
			}
			got, err := tb.ReadFile("/dir/file")
			if err != nil {
				t.Fatalf("read file: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("payload mismatch: got %d bytes", len(got))
			}
			st, err := tb.Stat("/dir/file")
			if err != nil || st.Size != int64(len(payload)) {
				t.Fatalf("stat: %v size=%d", err, st.Size)
			}
			if err := tb.Rename("/dir/file", "/dir/file2"); err != nil {
				t.Fatalf("rename: %v", err)
			}
			if err := tb.Unlink("/dir/file2"); err != nil {
				t.Fatalf("unlink: %v", err)
			}
			if err := tb.Rmdir("/dir"); err != nil {
				t.Fatalf("rmdir: %v", err)
			}
			if err := tb.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}

// TestSecondOpenOutlivesTheFirst: two opens of one file may share a handle,
// one per cached inode on every stack, and closing one open ends nothing the
// other needs. After the first is closed, the second reads the file, writes
// to it and closes, and the file holds both writes.
func TestSecondOpenOutlivesTheFirst(t *testing.T) {
	for _, k := range AllKinds {
		t.Run(k.String(), func(t *testing.T) {
			tb := mk(t, k)
			payload := bytes.Repeat([]byte("open"), 3000) // 12 KB
			if err := tb.WriteFile("/f", payload); err != nil {
				t.Fatalf("write file: %v", err)
			}
			first, err := tb.Open("/f")
			if err != nil {
				t.Fatalf("first open: %v", err)
			}
			second, err := tb.Open("/f")
			if err != nil {
				t.Fatalf("second open: %v", err)
			}
			if err := tb.Close(first); err != nil {
				t.Fatalf("close first: %v", err)
			}
			got := make([]byte, len(payload))
			if n, err := tb.ReadFileAt(second, 0, got); err != nil || n != len(payload) || !bytes.Equal(got, payload) {
				t.Fatalf("read through the second: n=%d err=%v", n, err)
			}
			tail := []byte("second")
			if n, err := tb.WriteFileAt(second, int64(len(payload)), tail); err != nil || n != len(tail) {
				t.Fatalf("write through the second: n=%d err=%v", n, err)
			}
			if err := tb.Close(second); err != nil {
				t.Fatalf("close second: %v", err)
			}
			if got, err := tb.ReadFile("/f"); err != nil || !bytes.Equal(got, append(payload, tail...)) {
				t.Fatalf("file after both closes: %d bytes, err %v", len(got), err)
			}
		})
	}
}

// TestDataSurvivesColdCache ensures cold-cache emulation preserves data.
func TestDataSurvivesColdCache(t *testing.T) {
	for _, k := range []Kind{NFSv3, ISCSI} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			tb := mk(t, k)
			payload := bytes.Repeat([]byte("durable!"), 2048)
			if err := tb.WriteFile("/keep", payload); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := tb.ColdCache(); err != nil {
				t.Fatalf("cold cache: %v", err)
			}
			got, err := tb.ReadFile("/keep")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("data lost across cold cache: err=%v n=%d", err, len(got))
			}
		})
	}
}

// TestColdCacheMessageShape verifies the paper's central cold-cache
// finding (Table 2): iSCSI costs more messages than NFS v2/v3 for
// meta-data operations, and NFS v4 costs more than v2/v3.
func TestColdCacheMessageShape(t *testing.T) {
	counts := map[Kind]int64{}
	for _, k := range AllKinds {
		tb := mk(t, k)
		if err := tb.ColdCache(); err != nil {
			t.Fatalf("cold: %v", err)
		}
		before := tb.Snap()
		if err := tb.Mkdir("/newdir"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		counts[k] = tb.Since(before).Messages
		t.Logf("%v cold mkdir: %d messages", k, counts[k])
	}
	if counts[ISCSI] <= counts[NFSv3] {
		t.Errorf("cold mkdir: iSCSI (%d) should exceed NFS v3 (%d)", counts[ISCSI], counts[NFSv3])
	}
	if counts[NFSv4] <= counts[NFSv3] {
		t.Errorf("cold mkdir: NFS v4 (%d) should exceed NFS v3 (%d)", counts[NFSv4], counts[NFSv3])
	}
	if counts[NFSv2] > 4 {
		t.Errorf("cold mkdir: NFS v2 used %d messages, want <= 4", counts[NFSv2])
	}
}

// TestWarmCacheMessageShape verifies Table 3's shape: warm iSCSI costs at
// most a couple of transactions (the journal flush), independent of any
// NFS consistency checking.
func TestWarmCacheMessageShape(t *testing.T) {
	counts := map[Kind]int64{}
	for _, k := range []Kind{NFSv3, ISCSI} {
		tb := mk(t, k)
		if err := tb.ColdCache(); err != nil {
			t.Fatalf("cold: %v", err)
		}
		// Cold op, then a similar op after a gap: the second is "warm".
		if err := tb.Mkdir("/warm1"); err != nil {
			t.Fatalf("mkdir 1: %v", err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		tb.Idle(5 * time.Second)
		before := tb.Snap()
		if err := tb.Mkdir("/warm2"); err != nil {
			t.Fatalf("mkdir 2: %v", err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatalf("drain 2: %v", err)
		}
		counts[k] = tb.Since(before).Messages
		t.Logf("%v warm mkdir: %d messages", k, counts[k])
	}
	if counts[ISCSI] > 3 {
		t.Errorf("warm mkdir: iSCSI used %d messages, want <= 3", counts[ISCSI])
	}
	if counts[ISCSI] > counts[NFSv3] {
		t.Errorf("warm mkdir: iSCSI (%d) should not exceed NFS v3 (%d)", counts[ISCSI], counts[NFSv3])
	}
}

// TestDirectoryDepthScaling verifies Figure 4's cold-cache slopes: iSCSI
// message counts grow about twice as fast with depth as NFS v2/v3.
func TestDirectoryDepthScaling(t *testing.T) {
	slope := func(k Kind, depth int) int64 {
		tb := mk(t, k)
		// Build the directory chain.
		path := ""
		for i := 0; i < depth; i++ {
			path += "/d"
			if err := tb.Mkdir(path); err != nil {
				t.Fatalf("mkdir chain: %v", err)
			}
		}
		if err := tb.ColdCache(); err != nil {
			t.Fatalf("cold: %v", err)
		}
		before := tb.Snap()
		if err := tb.Mkdir(path + "/leaf"); err != nil {
			t.Fatalf("mkdir leaf: %v", err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return tb.Since(before).Messages
	}
	for _, k := range []Kind{NFSv3, ISCSI} {
		d0 := slope(k, 0)
		d8 := slope(k, 8)
		perLevel := float64(d8-d0) / 8
		t.Logf("%v: depth0=%d depth8=%d slope=%.2f/level", k, d0, d8, perLevel)
		switch k {
		case NFSv3:
			if perLevel < 0.5 || perLevel > 1.6 {
				t.Errorf("NFS v3 cold depth slope %.2f, want ~1/level", perLevel)
			}
		case ISCSI:
			if perLevel < 1.4 || perLevel > 2.6 {
				t.Errorf("iSCSI cold depth slope %.2f, want ~2/level", perLevel)
			}
		}
	}
}

// TestWarmDepthIndependenceISCSI verifies Figure 4's warm behaviour: the
// iSCSI message count does not grow with directory depth.
func TestWarmDepthIndependenceISCSI(t *testing.T) {
	warm := func(depth int) int64 {
		tb := mk(t, ISCSI)
		path := ""
		for i := 0; i < depth; i++ {
			path += "/d"
			if err := tb.Mkdir(path); err != nil {
				t.Fatalf("mkdir chain: %v", err)
			}
		}
		if err := tb.ColdCache(); err != nil {
			t.Fatalf("cold: %v", err)
		}
		if err := tb.Mkdir(path + "/w1"); err != nil {
			t.Fatalf("mkdir w1: %v", err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		tb.Idle(5 * time.Second)
		before := tb.Snap()
		if err := tb.Mkdir(path + "/w2"); err != nil {
			t.Fatalf("mkdir w2: %v", err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return tb.Since(before).Messages
	}
	d0, d8 := warm(0), warm(8)
	t.Logf("iSCSI warm mkdir: depth0=%d depth8=%d", d0, d8)
	if d8 != d0 {
		t.Errorf("iSCSI warm mkdir should be depth-independent: %d vs %d", d0, d8)
	}
}

// TestWriteMessageAsymmetry verifies Table 4's write finding: iSCSI needs
// far fewer (larger) wire transactions than NFS v3 for a big write.
func TestWriteMessageAsymmetry(t *testing.T) {
	const fileSize = 8 << 20 // 8 MB is enough to show the ratio
	counts := map[Kind]int64{}
	for _, k := range []Kind{NFSv3, ISCSI} {
		tb := mk(t, k)
		before := tb.Snap()
		f, err := tb.Create("/big")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		chunk := make([]byte, 4096)
		for off := int64(0); off < fileSize; off += 4096 {
			if _, err := tb.WriteFileAt(f, off, chunk); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		if err := tb.Close(f); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		counts[k] = tb.Since(before).Messages
		t.Logf("%v sequential 8MB write: %d messages", k, counts[k])
	}
	if counts[ISCSI]*4 > counts[NFSv3] {
		t.Errorf("sequential write: iSCSI (%d msgs) should be well under NFS v3 (%d msgs)",
			counts[ISCSI], counts[NFSv3])
	}
}

// TestFreshTestbedStoresOnlyMetadata guards the host cost of a build: the
// 2048 zeroed journal blocks of Mkfs must not be materialised in the sparse
// store, only the handful of blocks that hold data (superblock, group
// descriptors, group 0's bitmaps, root inode and directory).
func TestFreshTestbedStoresOnlyMetadata(t *testing.T) {
	for _, k := range []Kind{NFSv3, ISCSI} {
		tb, err := New(Config{Kind: k, DeviceBlocks: 131072})
		if err != nil {
			t.Fatalf("testbed %v: %v", k, err)
		}
		if n := tb.Cluster.vols[0].Store().Populated(); n > 64 {
			t.Errorf("%v: fresh 131072-block testbed holds %d blocks, want <= 64", k, n)
		}
	}
}
