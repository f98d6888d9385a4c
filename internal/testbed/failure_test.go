package testbed

import (
	"bytes"
	"testing"
	"time"
)

// TestNFSSurvivesFrameLoss runs a meta-data workload over a lossy network:
// the RPC layer's retransmission machinery must mask the loss.
func TestNFSSurvivesFrameLoss(t *testing.T) {
	tb, err := New(Config{Kind: NFSv3, DeviceBlocks: 65536, LossRate: 0.15, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("lossy"), 2000)
	for i := 0; i < 20; i++ {
		dir := "/d" + itoa(i)
		if err := tb.Mkdir(dir); err != nil {
			t.Fatalf("mkdir %d over lossy net: %v", i, err)
		}
		if err := tb.WriteFile(dir+"/f", payload); err != nil {
			t.Fatalf("write %d over lossy net: %v", i, err)
		}
	}
	if err := tb.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := tb.ReadFile("/d7/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("data corrupted by loss recovery: %v", err)
	}
	if tb.Counters().RPC.Retransmits == 0 {
		t.Error("15% loss produced no retransmissions")
	}
	if tb.Cluster.Net.Stats().Dropped == 0 {
		t.Error("loss injection inactive")
	}
}

// TestISCSIDiskFailureSurfaces verifies injected device write failures
// propagate through the whole stack as I/O errors, and recovery works.
func TestISCSIDiskFailureSurfaces(t *testing.T) {
	tb, err := New(Config{Kind: ISCSI, DeviceBlocks: 65536})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteFile("/before", []byte("pre-failure")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Drain(); err != nil {
		t.Fatal(err)
	}
	tb.stack.(*iscsiStack).target.Device().FailWrites = true
	// Writes land in the client cache; the failure surfaces at flush.
	werr := tb.WriteFile("/during", bytes.Repeat([]byte("x"), 8192))
	derr := tb.Drain()
	if werr == nil && derr == nil {
		t.Fatal("device write failure never surfaced")
	}
	tb.stack.(*iscsiStack).target.Device().FailWrites = false
	got, err := tb.ReadFile("/before")
	if err != nil || string(got) != "pre-failure" {
		t.Fatalf("pre-failure data lost: %v", err)
	}
}

// TestClientCrashDurability verifies the paper's Section 2.3 semantics on
// the iSCSI stack end-to-end: synced meta-data survives a client crash,
// unsynced updates within the commit interval are lost.
func TestClientCrashDurability(t *testing.T) {
	tb, err := New(Config{Kind: ISCSI, DeviceBlocks: 65536})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Mkdir("/durable"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Mkdir("/volatile"); err != nil {
		t.Fatal(err)
	}
	// Crash without draining: /volatile sits in the running transaction.
	tb.stack.(*iscsiStack).fs.Crash()
	// Remount over the same volume (recovery replays the journal).
	if err := tb.ColdCache(); err == nil {
		if _, err := tb.Stat("/durable"); err != nil {
			t.Fatalf("synced directory lost across crash: %v", err)
		}
		if _, err := tb.Stat("/volatile"); err == nil {
			t.Fatal("uncommitted directory survived the crash")
		}
	}
}

// TestHighLatencyCorrectness runs the workload at WAN latency: slower but
// correct, with NFS showing retransmissions (Figure 6's mechanism).
func TestHighLatencyCorrectness(t *testing.T) {
	for _, k := range []Kind{NFSv3, ISCSI} {
		tb, err := New(Config{Kind: k, DeviceBlocks: 65536})
		if err != nil {
			t.Fatal(err)
		}
		tb.Cluster.Net.SetRTT(80 * time.Millisecond)
		payload := bytes.Repeat([]byte("wan"), 5000)
		start := tb.Clock.Now()
		if err := tb.WriteFile("/wan", payload); err != nil {
			t.Fatalf("%v write at 80ms RTT: %v", k, err)
		}
		got, err := tb.ReadFile("/wan")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%v data wrong at high RTT: %v", k, err)
		}
		if tb.Clock.Now()-start < 80*time.Millisecond {
			t.Fatalf("%v finished faster than one RTT", k)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
