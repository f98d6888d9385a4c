package iscsi

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
)

// The tests in this file are about what only the TCP wire has: overlapping
// data phases, TCP loss recovery, per-connection statistics.

func sessionNet(rtt time.Duration, loss float64, seed int64) *simnet.Network {
	return simnet.New(simnet.Config{
		RTT:              rtt,
		Bandwidth:        117 << 20,
		PerFrameOverhead: 66,
		LossRate:         loss,
		Seed:             seed,
	})
}

func newSessionPair(t *testing.T, n *simnet.Network, conns int, window int) (*Initiator, *Target, time.Duration) {
	t.Helper()
	dev := blockdev.NewTestbedArray(4096)
	tgt := NewTarget("iqn.2004.repro:mcs", dev, nil)
	s := NewSession(n, tgt, nil, conns, tcpsim.Config{WindowBytes: window})
	done, err := s.Login(0)
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	return s, tgt, done
}

func TestMCSOverlapsDataPhases(t *testing.T) {
	// A window-limited 128 KB read on an 80 ms link: four connections
	// carry 32 KB each in parallel and beat one connection carrying a
	// window-bound 128 KB stream.
	rtt := 80 * time.Millisecond
	window := 64 << 10
	read := func(conns int) time.Duration {
		s, _, at := newSessionPair(t, sessionNet(rtt, 0, 1), conns, window)
		bs := s.BlockSize()
		data := bytes.Repeat([]byte{0x42}, 32*bs)
		at, err := s.WriteBlocks(at, 0, data)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(data))
		done, err := s.ReadBlocks(at, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		return done - at
	}
	one := read(1)
	four := read(4)
	if four >= one {
		t.Fatalf("MC/S gave no read overlap: 1 conn %v, 4 conns %v", one, four)
	}
}

func TestSessionSurvivesLoss(t *testing.T) {
	s, _, at := newSessionPair(t, sessionNet(5*time.Millisecond, 0.03, 7), 2, 0)
	bs := s.BlockSize()
	data := bytes.Repeat([]byte{0x7E}, 64*bs)
	done, err := s.WriteBlocks(at, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err = s.ReadBlocks(done, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data corrupted by loss recovery")
	}
	if s.Stats().Retransmits == 0 {
		t.Fatal("3% loss produced no TCP retransmissions")
	}
}

func TestSessionDeterministic(t *testing.T) {
	run := func() (time.Duration, tcpsim.Stats) {
		s, _, at := newSessionPair(t, sessionNet(10*time.Millisecond, 0.02, 11), 4, 0)
		bs := s.BlockSize()
		data := bytes.Repeat([]byte{0x11}, 128*bs)
		done, err := s.WriteBlocks(at, 0, data)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(data))
		done, err = s.ReadBlocks(done, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		return done, s.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("non-deterministic session: %v/%+v vs %v/%+v", d1, s1, d2, s2)
	}
}

func TestSessionCountsOneMessagePerCommand(t *testing.T) {
	n := sessionNet(200*time.Microsecond, 0, 1)
	s, _, at := newSessionPair(t, n, 2, 0)
	before := n.Stats().Messages
	bs := s.BlockSize()
	// 128 blocks at maxTransferBlocks=64 across 2 conns -> 2 commands.
	if _, err := s.WriteBlocks(at, 0, make([]byte, 128*bs)); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Messages - before; got != 2 {
		t.Fatalf("128-block write counted %d messages, want 2", got)
	}
}

// TestKnownDefectFailedStripedTransferReportsTimeZero asserts today's wrong
// behaviour (ROADMAP, "a failed striped TCP transfer reports time 0"): when
// the connections of an MC/S session die under a striped transfer, runPipes
// returns 0 instead of the instant the transfer failed, so ReadBlocks and
// WriteBlocks complete before they were issued. The fix moves a simulated
// number, and inverts the time check below.
func TestKnownDefectFailedStripedTransferReportsTimeZero(t *testing.T) {
	s, _, at := newSessionPair(t, sessionNet(200*time.Microsecond, 0, 1), 4, 0)
	for _, c := range s.wire.conns() {
		c.Break() // the connections die and the login stays: the transfer fails
	}
	buf := make([]byte, 16*s.BlockSize())
	for _, op := range []struct {
		name string
		rw   func(time.Duration, int64, []byte) (time.Duration, error)
	}{{"ReadBlocks", s.ReadBlocks}, {"WriteBlocks", s.WriteBlocks}} {
		done, err := op.rw(at, 0, buf)
		if !errors.Is(err, simnet.ErrTransportBroken) {
			t.Fatalf("%s on broken connections: %v, want the transport's break", op.name, err)
		}
		if done != 0 {
			t.Errorf("%s issued at %v failed at %v, not at time 0: the defect is mended, invert this test", op.name, at, done)
		}
	}
}
