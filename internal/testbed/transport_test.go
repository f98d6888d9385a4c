package testbed

import (
	"bytes"
	"testing"
	"time"
)

// mkTCP builds a testbed on the virtual-time TCP transport.
func mkTCP(t *testing.T, k Kind, conns int) *Testbed {
	t.Helper()
	tb, err := New(Config{
		Kind:         k,
		DeviceBlocks: 16384,
		Transport:    TransportTCP,
		Conns:        conns,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("testbed(%v, tcp x%d): %v", k, conns, err)
	}
	return tb
}

// TestTCPTransportBasicOpsAllStacks runs the create/write/read/readback
// cycle on every stack over tcpsim connections.
func TestTCPTransportBasicOpsAllStacks(t *testing.T) {
	for _, k := range AllKinds {
		tb := mkTCP(t, k, 1)
		if err := tb.Mkdir("/d"); err != nil {
			t.Fatalf("%v mkdir: %v", k, err)
		}
		payload := bytes.Repeat([]byte{0xAB}, 64<<10)
		if err := tb.WriteFile("/d/f", payload); err != nil {
			t.Fatalf("%v write: %v", k, err)
		}
		if err := tb.ColdCache(); err != nil {
			t.Fatalf("%v coldcache: %v", k, err)
		}
		got, err := tb.ReadFile("/d/f")
		if err != nil {
			t.Fatalf("%v read: %v", k, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%v read-back mismatch over TCP transport", k)
		}
		if tb.Counters().TCP.Segments == 0 {
			t.Fatalf("%v ran no TCP segments under TransportTCP", k)
		}
	}
}

// TestTransportValidation rejects arrangements no deployment has.
func TestTransportValidation(t *testing.T) {
	if _, err := New(Config{Kind: ISCSI, Transport: TransportUDP}); err == nil {
		t.Fatal("iSCSI over UDP accepted")
	}
	if _, err := New(Config{Kind: NFSv3, Transport: TransportTCP, Conns: 4}); err == nil {
		t.Fatal("NFS MC/S accepted")
	}
	if _, err := New(Config{Kind: ISCSI, Transport: TransportFluid, Conns: 4}); err == nil {
		t.Fatal("fluid MC/S accepted")
	}
	if _, err := NewCluster(ClusterConfig{Config: Config{Kind: ISCSI, Transport: TransportUDP}, Clients: 2}); err == nil {
		t.Fatal("cluster iSCSI over UDP accepted")
	}
}

// TestNFSUDPTransportForced: TransportUDP pins even v3/v4 to datagram RPC
// (the paper's Linux client ran v3 over UDP).
func TestNFSUDPTransportForced(t *testing.T) {
	tb, err := New(Config{Kind: NFSv3, DeviceBlocks: 16384, Transport: TransportUDP, LossRate: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteFile("/f", make([]byte, 64<<10)); err != nil {
		t.Fatalf("write under loss: %v", err)
	}
	if err := tb.Drain(); err != nil {
		t.Fatal(err)
	}
	if tb.Counters().RPC.Retransmits == 0 {
		t.Fatal("5% frame loss on the UDP transport produced no RPC retransmissions")
	}
	if tb.Counters().TCP.Segments != 0 {
		t.Fatal("UDP transport sent TCP segments")
	}
}

// TestAccessorsReadThroughTheStack: what a Client hands out (FS and
// Counters) reads through the stack at call time, whatever rebuilt its
// parts. ColdCache replaces the iSCSI client filesystem and keeps sessions
// and RPC clients; a forced recovery (the remount a reboot does) rebuilds
// the MC/S session and the RPC client, whose own statistics restart while
// the client's Counters stay cumulative.
func TestAccessorsReadThroughTheStack(t *testing.T) {
	work := func(tb *Testbed) {
		t.Helper()
		if err := tb.WriteFile("/f", make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
		if err := tb.ColdCache(); err != nil {
			t.Fatal(err)
		}
	}
	recover := func(tb *Testbed) {
		t.Helper()
		done, repaired, err := tb.Cluster.RecoverClient(0, tb.Clock.Now(), true)
		if err != nil || !repaired {
			t.Fatalf("forced recovery: repaired=%v err=%v", repaired, err)
		}
		tb.Clock.AdvanceTo(done)
	}

	t.Run("iscsi", func(t *testing.T) {
		tb := mkTCP(t, ISCSI, 4)
		st := tb.stack.(*iscsiStack)
		fs0, s0 := st.fs, st.endpoint
		if fs0 != tb.FS || s0.Conns() != 4 {
			t.Fatalf("fs=%v initiator=%v, want the mounted fs and 4 conns", fs0, s0)
		}
		work(tb)
		if st.fs == fs0 || st.fs != tb.FS {
			t.Fatal("FS does not follow the cold-cache remount")
		}
		if st.endpoint != s0 {
			t.Fatal("ColdCache rebuilt the initiator")
		}
		before := tb.Counters().TCP.Segments
		recover(tb)
		if s := st.endpoint; s == s0 || s.Conns() != 4 {
			t.Fatalf("initiator after recovery: rebuilt=%v conns=%d", s != s0, s.Conns())
		}
		if st.endpoint.Stats().Segments >= before || tb.Counters().TCP.Segments <= before {
			t.Fatalf("segments: live session %d, cumulative %d, before recovery %d",
				st.endpoint.Stats().Segments, tb.Counters().TCP.Segments, before)
		}
	})

	t.Run("nfs", func(t *testing.T) {
		tb := mkTCP(t, NFSv3, 1)
		st := tb.stack.(*nfsStack)
		rpc0, c0 := st.rpc, st.client
		if c0 != tb.FS {
			t.Fatal("FS is not the mounted NFS client")
		}
		work(tb)
		if st.rpc != rpc0 || st.client != c0 {
			t.Fatal("ColdCache rebuilt the protocol client")
		}
		before := tb.Counters().RPC.Calls
		if before == 0 || rpc0.Stats().Calls != before {
			t.Fatalf("calls before recovery: live %d, cumulative %d", rpc0.Stats().Calls, before)
		}
		recover(tb)
		if st.rpc == rpc0 || st.client == c0 || st.client != tb.FS {
			t.Fatal("the client still reads the retired protocol client")
		}
		if live, cum := st.rpc.Stats().Calls, tb.Counters().RPC.Calls; live >= before || cum != before+live {
			t.Fatalf("calls after recovery: live %d, cumulative %d, before %d", live, cum, before)
		}
	})
}

// TestTCPClusterRuns: N clients over TCP transports share one server.
func TestTCPClusterRuns(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind:         ISCSI,
			DeviceBlocks: 16384,
			Transport:    TransportTCP,
			Conns:        2,
			Seed:         11,
		},
		Clients: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	drivers := make([]func() (bool, error), 3)
	for i, c := range cl.Clients {
		cc, n := c, 0
		drivers[i] = func() (bool, error) {
			if n >= 4 {
				return false, nil
			}
			n++
			return true, cc.WriteFile("/f", make([]byte, 16<<10))
		}
	}
	if err := cl.Run(drivers); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPTransportDeterministic: identical configs give identical
// timelines under loss.
func TestTCPTransportDeterministic(t *testing.T) {
	run := func() time.Duration {
		tb, err := New(Config{
			Kind:         ISCSI,
			DeviceBlocks: 16384,
			Transport:    TransportTCP,
			Conns:        2,
			LossRate:     0.02,
			RTT:          10 * time.Millisecond,
			Seed:         5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.WriteFile("/f", make([]byte, 256<<10)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatal(err)
		}
		return tb.Clock.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic TCP testbed: %v vs %v", a, b)
	}
}
