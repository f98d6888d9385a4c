package sunrpc

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/tcpsim"
)

func lan() *simnet.Network { return simnet.New(simnet.DefaultLAN()) }

func TestCallCountsOneMessage(t *testing.T) {
	n := lan()
	c := NewClient(n, TCP)
	done, err := c.Call(0, 100, func(arrive time.Duration) (int, time.Duration) {
		return 200, arrive + time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	if done < time.Millisecond {
		t.Fatalf("done %v before service completed", done)
	}
	s := n.Stats()
	if s.Messages != 1 || s.Frames != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if c.Stats().Calls != 1 || c.Stats().Retransmits != 0 {
		t.Fatalf("rpc stats: %+v", c.Stats())
	}
}

func TestSpuriousRetransmissionAtHighLatency(t *testing.T) {
	n := simnet.New(simnet.Config{RTT: 500 * time.Millisecond, Bandwidth: 1 << 30})
	c := NewClient(n, TCP)
	c.RTO = 100 * time.Millisecond // fires while the reply is in flight
	_, err := c.Call(0, 100, func(arrive time.Duration) (int, time.Duration) {
		return 100, arrive
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Retransmits == 0 {
		t.Fatal("no spurious retransmissions at RTT >> RTO (the Figure 6 pathology)")
	}
}

func TestLossRecovery(t *testing.T) {
	n := simnet.New(simnet.Config{RTT: time.Millisecond, Bandwidth: 1 << 30, LossRate: 0.5, Seed: 3})
	c := NewClient(n, UDP)
	c.RTO = 10 * time.Millisecond
	c.MaxRetries = 30 // 50% frame loss kills ~75% of attempts
	served := 0
	for i := 0; i < 20; i++ {
		_, err := c.Call(time.Duration(i)*time.Second, 64, func(arrive time.Duration) (int, time.Duration) {
			served++
			return 64, arrive
		})
		if err != nil {
			t.Fatalf("call %d failed despite retries: %v", i, err)
		}
	}
	if c.Stats().Timeouts == 0 {
		t.Fatal("50% loss produced no timeouts")
	}
}

func TestDuplicateRequestCacheNoReexecution(t *testing.T) {
	// Deterministic loss of the first reply: serve must run exactly once.
	n := simnet.New(simnet.Config{RTT: time.Millisecond, Bandwidth: 1 << 30, LossRate: 0.45, Seed: 11})
	c := NewClient(n, UDP)
	c.RTO = 5 * time.Millisecond
	for i := 0; i < 30; i++ {
		executions := 0
		_, err := c.Call(time.Duration(i)*time.Second, 64, func(arrive time.Duration) (int, time.Duration) {
			executions++
			return 64, arrive
		})
		if err != nil {
			continue
		}
		if executions > 1 {
			t.Fatalf("call %d executed %d times (duplicate request cache broken)", i, executions)
		}
	}
}

func TestStreamCallRidesTCP(t *testing.T) {
	n := lan()
	c := NewClient(n, TCP)
	conn := tcpsim.NewConn(n, tcpsim.Config{})
	start, err := conn.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetConn(conn)
	done, err := c.Call(start, 100, func(arrive time.Duration) (int, time.Duration) {
		return 8192, arrive + time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	if done <= start+time.Millisecond {
		t.Fatalf("done %v before service+wire time", done)
	}
	if c.Stats().Calls != 1 || c.Stats().Retransmits != 0 {
		t.Fatalf("rpc stats: %+v", c.Stats())
	}
	if n.Stats().Messages != 1 {
		t.Fatalf("messages = %d, want 1", n.Stats().Messages)
	}
	if conn.Stats().Segments < 7 {
		t.Fatalf("8 KB reply over TCP sent %d segments, want >= 7", conn.Stats().Segments)
	}
}

func TestStreamAbsorbsLossWithoutRPCRetransmits(t *testing.T) {
	// 5% frame loss: the datagram path must retransmit at RPC level; the
	// stream path recovers inside TCP and the RPC counters stay clean.
	n := simnet.New(simnet.Config{RTT: time.Millisecond, Bandwidth: 1 << 30, LossRate: 0.05, Seed: 4})
	c := NewClient(n, TCP)
	conn := tcpsim.NewConn(n, tcpsim.Config{})
	start, err := conn.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetConn(conn)
	at := start
	for i := 0; i < 50; i++ {
		at, err = c.Call(at, 1024, func(arrive time.Duration) (int, time.Duration) {
			return 8192, arrive
		})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if s := c.Stats(); s.Retransmits != 0 || s.Timeouts != 0 {
		t.Fatalf("RPC layer retransmitted over TCP: %+v", s)
	}
	if conn.Stats().Retransmits == 0 {
		t.Fatal("TCP absorbed no losses at 5% frame loss")
	}
}

func TestStreamNoSpuriousRetransmitsAtHighRTT(t *testing.T) {
	// The Section 4.6 pathology is a UDP artifact: over TCP the RPC timer
	// (60 s on Linux) never fires at WAN latencies.
	n := simnet.New(simnet.Config{RTT: 500 * time.Millisecond, Bandwidth: 1 << 30})
	c := NewClient(n, TCP)
	c.RTO = 100 * time.Millisecond
	conn := tcpsim.NewConn(n, tcpsim.Config{})
	start, err := conn.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetConn(conn)
	if _, err := c.Call(start, 100, func(arrive time.Duration) (int, time.Duration) {
		return 100, arrive
	}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Retransmits != 0 {
		t.Fatalf("spurious RPC retransmissions over TCP: %+v", c.Stats())
	}
}

func TestGiveUpAfterMaxRetries(t *testing.T) {
	n := simnet.New(simnet.Config{RTT: time.Millisecond, Bandwidth: 1 << 30, LossRate: 1.0, Seed: 5})
	c := NewClient(n, UDP)
	c.RTO = time.Millisecond
	c.MaxRetries = 3
	_, err := c.Call(0, 64, func(arrive time.Duration) (int, time.Duration) { return 64, arrive })
	if err == nil {
		t.Fatal("call succeeded over a dead network")
	}
	if c.Stats().Failures != 1 {
		t.Fatalf("failures = %d", c.Stats().Failures)
	}
}

// TestSlotTableCapsInflightCalls: with a 2-entry slot table, a third
// call issued while two are in flight queues for the earliest-freeing
// slot, and the wait lands in the slot counters.
func TestSlotTableCapsInflightCalls(t *testing.T) {
	n := simnet.New(simnet.Config{RTT: 10 * time.Millisecond, Bandwidth: 1 << 30})
	c := NewClient(n, TCP)
	c.SlotEntries = 2
	serve := func(arrive time.Duration) (int, time.Duration) {
		return 10, arrive + 100*time.Millisecond
	}
	// Two overlapping calls at t=0 occupy both slots past 110 ms.
	d1, err := c.Call(0, 10, serve)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(0, 10, serve); err != nil {
		t.Fatal(err)
	}
	// The third call at t=0 must wait for slot 1 to free (d1).
	d3, err := c.Call(0, 10, serve)
	if err != nil {
		t.Fatal(err)
	}
	if d3 < d1+100*time.Millisecond {
		t.Fatalf("third call done %v, want admitted no earlier than %v", d3, d1)
	}
	s := c.Stats()
	if s.SlotWaits != 1 {
		t.Fatalf("slot waits = %d, want 1", s.SlotWaits)
	}
	if s.SlotWaitNs < int64(100*time.Millisecond) {
		t.Fatalf("slot wait %dns, want >= 100ms", s.SlotWaitNs)
	}
}

// TestSlotTableIdleIsFree: sequential calls never wait on slots, so
// existing single-stream workloads keep their exact timings.
func TestSlotTableIdleIsFree(t *testing.T) {
	c := NewClient(lan(), TCP)
	done := time.Duration(0)
	for i := 0; i < 40; i++ {
		var err error
		done, err = c.Call(done, 100, func(arrive time.Duration) (int, time.Duration) {
			return 100, arrive
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.SlotWaits != 0 || s.SlotWaitNs != 0 {
		t.Fatalf("sequential calls hit the slot table: %+v", s)
	}
}

// TestSlotTableStreamPath: the slot table also gates calls riding a TCP
// connection (the stream path bypasses RPC retransmission, not slots).
func TestSlotTableStreamPath(t *testing.T) {
	n := lan()
	c := NewClient(n, TCP)
	c.SlotEntries = 1
	conn := tcpsim.NewConn(n, tcpsim.Config{DisableNagle: true})
	if _, err := conn.Connect(0); err != nil {
		t.Fatal(err)
	}
	c.SetConn(conn)
	serve := func(arrive time.Duration) (int, time.Duration) {
		return 10, arrive + 50*time.Millisecond
	}
	d1, err := c.Call(time.Second, 10, serve)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(time.Second, 10, serve); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.SlotWaits != 1 || s.SlotWaitNs < int64(d1-time.Second) {
		t.Fatalf("stream path slot stats: %+v (first call done %v)", s, d1)
	}
}

// TestTransportNames checks the names the transports print as, which tag
// the RPC layer's counters and error messages.
func TestTransportNames(t *testing.T) {
	for tr, want := range map[Transport]string{UDP: "udp", TCP: "tcp"} {
		if got := tr.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(tr), got, want)
		}
	}
}
