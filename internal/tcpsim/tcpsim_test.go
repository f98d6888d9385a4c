package tcpsim

import (
	"testing"
	"time"

	"repro/internal/simnet"
)

// wan builds a high-latency, high-bandwidth link (loss optional).
func wan(rtt time.Duration, loss float64, seed int64) *simnet.Network {
	return simnet.New(simnet.Config{
		RTT:              rtt,
		Bandwidth:        117 << 20,
		PerFrameOverhead: 66,
		LossRate:         loss,
		Seed:             seed,
	})
}

func connect(t *testing.T, n *simnet.Network, cfg Config) (*Conn, time.Duration) {
	t.Helper()
	c := NewConn(n, cfg)
	done, err := c.Connect(0)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	return c, done
}

func TestHandshakeTakesOneRTT(t *testing.T) {
	rtt := 40 * time.Millisecond
	c, done := connect(t, wan(rtt, 0, 1), Config{})
	if !c.Established() {
		t.Fatal("not established")
	}
	if done < rtt || done > rtt+time.Millisecond {
		t.Fatalf("handshake took %v, want ~%v", done, rtt)
	}
}

func TestSlowStartPacesSmallTransfer(t *testing.T) {
	// 10 full segments with initcwnd 3 need flights of 3, 6(ssthresh-capped
	// growth), then the rest: at least 3 window rounds on a high-RTT link.
	rtt := 40 * time.Millisecond
	c, start := connect(t, wan(rtt, 0, 1), Config{WindowBytes: 1 << 20})
	size := 10 * c.config().MSS
	done, ok := c.Transfer(start, size, simnet.ClientToServer)
	if !ok {
		t.Fatal("transfer failed")
	}
	el := done - start
	if el < 2*rtt {
		t.Fatalf("10-segment transfer finished in %v; slow start should need >2 RTT", el)
	}
	if el > 5*rtt {
		t.Fatalf("10-segment transfer took %v; too slow for 3 flights", el)
	}
}

func TestWindowCapBoundsThroughput(t *testing.T) {
	// Steady state moves ~one window per RTT: a 1 MB transfer over 40 ms
	// RTT at a 64 KB cap needs >= 14 rounds; a 256 KB cap needs ~4.
	rtt := 40 * time.Millisecond
	size := 1 << 20

	small, s1 := connect(t, wan(rtt, 0, 1), Config{WindowBytes: 64 << 10})
	dSmall, ok := small.Transfer(s1, size, simnet.ClientToServer)
	if !ok {
		t.Fatal("64K transfer failed")
	}
	big, s2 := connect(t, wan(rtt, 0, 1), Config{WindowBytes: 256 << 10})
	dBig, ok := big.Transfer(s2, size, simnet.ClientToServer)
	if !ok {
		t.Fatal("256K transfer failed")
	}
	elSmall, elBig := dSmall-s1, dBig-s2
	if elSmall < 13*rtt {
		t.Fatalf("64K window moved 1 MB in %v; window cap not enforced", elSmall)
	}
	if elBig*2 >= elSmall {
		t.Fatalf("4x window did not speed up: 64K=%v 256K=%v", elSmall, elBig)
	}
}

func TestLossRecoveryCompletesAndCounts(t *testing.T) {
	c, start := connect(t, wan(10*time.Millisecond, 0.05, 7), Config{})
	done, ok := c.Transfer(start, 400<<10, simnet.ClientToServer)
	if !ok {
		t.Fatal("transfer failed under 5% loss")
	}
	if done <= start {
		t.Fatal("no elapsed time")
	}
	st := c.Stats()
	if st.Retransmits == 0 {
		t.Fatal("5% loss produced no retransmissions")
	}
	if st.FastRetransmits == 0 && st.Timeouts == 0 {
		t.Fatal("no recovery events recorded")
	}
}

func TestLossSlowsTransfer(t *testing.T) {
	size := 400 << 10
	rtt := 10 * time.Millisecond
	clean, s1 := connect(t, wan(rtt, 0, 3), Config{})
	dClean, _ := clean.Transfer(s1, size, simnet.ClientToServer)
	lossy, s2 := connect(t, wan(rtt, 0.03, 3), Config{})
	dLossy, ok := lossy.Transfer(s2, size, simnet.ClientToServer)
	if !ok {
		t.Fatal("lossy transfer failed")
	}
	if dLossy-s2 <= dClean-s1 {
		t.Fatalf("loss did not slow the transfer: clean=%v lossy=%v", dClean-s1, dLossy-s2)
	}
}

func TestNagleHoldsSubMSSTail(t *testing.T) {
	// MSS+1 bytes: Nagle holds the 1-byte tail until the full segment is
	// ACKed (a second round); TCP_NODELAY ships both in one round.
	rtt := 40 * time.Millisecond
	nagle, s1 := connect(t, wan(rtt, 0, 1), Config{})
	d1, _ := nagle.Transfer(s1, nagle.config().MSS+1, simnet.ClientToServer)
	nodelay, s2 := connect(t, wan(rtt, 0, 1), Config{DisableNagle: true})
	d2, _ := nodelay.Transfer(s2, nodelay.config().MSS+1, simnet.ClientToServer)
	if (d1-s1)-(d2-s2) < rtt/2 {
		t.Fatalf("nagle=%v nodelay=%v: tail not held for a round", d1-s1, d2-s2)
	}
}

func TestDelayedAckStallsOddFlights(t *testing.T) {
	// 5 full segments: initcwnd 3 sends an odd flight with data pending,
	// eating one delayed-ACK timer; quickack avoids it.
	rtt := time.Millisecond
	delack, s1 := connect(t, wan(rtt, 0, 1), Config{})
	size := 5 * delack.config().MSS
	d1, _ := delack.Transfer(s1, size, simnet.ClientToServer)
	quick, s2 := connect(t, wan(rtt, 0, 1), Config{DisableDelAck: true})
	d2, _ := quick.Transfer(s2, size, simnet.ClientToServer)
	if (d1-s1)-(d2-s2) < 30*time.Millisecond {
		t.Fatalf("delack=%v quickack=%v: no delayed-ACK stall", d1-s1, d2-s2)
	}
}

func TestConnectFailsOnDeadLink(t *testing.T) {
	n := wan(time.Millisecond, 1.0, 5)
	c := NewConn(n, Config{})
	if _, err := c.Connect(0); err == nil {
		t.Fatal("connect succeeded over a dead link")
	}
	if c.Established() {
		t.Fatal("established after failed handshake")
	}
	if _, ok := c.Transfer(0, 1000, simnet.ClientToServer); ok {
		t.Fatal("transfer succeeded on unestablished connection")
	}
}

func TestDeterministicTimeline(t *testing.T) {
	run := func() (time.Duration, Stats) {
		c, start := connect(t, wan(20*time.Millisecond, 0.04, 9), Config{})
		done, ok := c.Transfer(start, 300<<10, simnet.ClientToServer)
		if !ok {
			t.Fatal("transfer failed")
		}
		return done, c.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("non-deterministic: %v/%+v vs %v/%+v", d1, s1, d2, s2)
	}
}

func TestInterleavedTransfersShareTheLink(t *testing.T) {
	// Two window-limited connections on one high-RTT link nearly overlap:
	// together they finish far sooner than twice one connection's time.
	rtt := 40 * time.Millisecond
	size := 256 << 10
	solo := wan(rtt, 0, 1)
	c0, s0 := connect(t, solo, Config{})
	dSolo, _ := c0.Transfer(s0, size, simnet.ClientToServer)
	elSolo := dSolo - s0

	n := wan(rtt, 0, 1)
	c1, st1 := connect(t, n, Config{})
	c2, _ := connect(t, n, Config{})
	x1 := c1.StartTransfer(st1, size, simnet.ClientToServer)
	x2 := c2.StartTransfer(st1, size, simnet.ClientToServer)
	for !x1.Done() || !x2.Done() {
		switch {
		case x1.Done():
			x2.Step()
		case x2.Done():
			x1.Step()
		case x1.NextAt() <= x2.NextAt():
			x1.Step()
		default:
			x2.Step()
		}
	}
	both := x1.Delivered()
	if x2.Delivered() > both {
		both = x2.Delivered()
	}
	if both-st1 > elSolo*3/2 {
		t.Fatalf("two interleaved flows took %v vs %v solo: no overlap", both-st1, elSolo)
	}
}

func TestTransportInterfaceSatisfied(t *testing.T) {
	var _ simnet.Transport = (*Conn)(nil)
}
