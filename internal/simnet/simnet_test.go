package simnet

import (
	"repro/internal/netqueue"

	"math"
	"testing"
	"time"
)

func TestRoundTripLatencyAndCounters(t *testing.T) {
	n := New(Config{RTT: 10 * time.Millisecond, Bandwidth: 1 << 30})
	done, ok := n.RoundTrip(0, 100, 100, func(arrive time.Duration) time.Duration {
		if arrive < 5*time.Millisecond {
			t.Fatalf("request arrived before half-RTT: %v", arrive)
		}
		return arrive + time.Millisecond // 1ms of server work
	})
	if !ok {
		t.Fatal("lossless round trip failed")
	}
	if done < 11*time.Millisecond {
		t.Fatalf("reply before RTT+service: %v", done)
	}
	s := n.Stats()
	if s.Messages != 1 || s.Frames != 2 {
		t.Fatalf("counters: %+v", s)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1 MB/s uplink: two 100 KB frames serialize to ~0.1s each.
	n := New(Config{RTT: 0, Bandwidth: 1 << 20, PerFrameOverhead: 0})
	a1, _ := n.Send(0, 100<<10, ClientToServer)
	a2, _ := n.Send(0, 100<<10, ClientToServer)
	if a2 < a1+(a1-0)/2 {
		t.Fatalf("no serialization: %v then %v", a1, a2)
	}
	// Opposite direction unaffected (full duplex).
	a3, _ := n.Send(0, 100<<10, ServerToClient)
	if a3 >= a2 {
		t.Fatalf("duplex broken: down %v vs up %v", a3, a2)
	}
}

func TestLossInjection(t *testing.T) {
	n := New(Config{RTT: time.Millisecond, Bandwidth: 1 << 30, LossRate: 1.0, Seed: 1})
	_, ok := n.Send(0, 100, ClientToServer)
	if ok {
		t.Fatal("frame survived 100% loss")
	}
	if n.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d", n.Stats().Dropped)
	}
}

func TestSetRTTMidRun(t *testing.T) {
	n := New(DefaultLAN())
	d1, _ := n.RoundTrip(0, 10, 10, func(a time.Duration) time.Duration { return a })
	n.SetRTT(50 * time.Millisecond)
	d2, _ := n.RoundTrip(d1, 10, 10, func(a time.Duration) time.Duration { return a })
	if d2-d1 < 50*time.Millisecond {
		t.Fatalf("RTT change ignored: %v", d2-d1)
	}
}

func TestSendLossAccounting(t *testing.T) {
	// A dropped frame still occupies the wire: frames and bytes count,
	// Dropped increments, and the would-be arrival time is still usable
	// for timeout modeling.
	n := New(Config{RTT: 2 * time.Millisecond, Bandwidth: 1 << 30, PerFrameOverhead: 66, LossRate: 1.0, Seed: 1})
	arrive, ok := n.Send(0, 1000, ClientToServer)
	if ok {
		t.Fatal("frame survived 100% loss")
	}
	if arrive < time.Millisecond {
		t.Fatalf("lost frame has no arrival horizon: %v", arrive)
	}
	s := n.Stats()
	if s.Dropped != 1 || s.Frames != 1 {
		t.Fatalf("dropped=%d frames=%d, want 1/1", s.Dropped, s.Frames)
	}
	if want := int64(1000 + 66); s.BytesSent != want {
		t.Fatalf("lost frame bytes = %d, want %d (wire occupancy still counts)", s.BytesSent, want)
	}
	if s.BytesRecv != 0 {
		t.Fatalf("uplink loss counted downlink bytes: %d", s.BytesRecv)
	}
}

func TestRoundTripRequestLost(t *testing.T) {
	// 100% loss kills the client->server request; the server must not
	// serve it, and the message is still counted (it was attempted).
	n := New(Config{RTT: time.Millisecond, Bandwidth: 1 << 30, LossRate: 1.0, Seed: 2})
	served := false
	_, ok := n.RoundTrip(0, 64, 32, func(a time.Duration) time.Duration {
		served = true
		return a
	})
	if ok {
		t.Fatal("round trip survived a dead link")
	}
	if served {
		t.Fatal("server ran although the request frame was lost")
	}
	if s := n.Stats(); s.Messages != 1 || s.Dropped != 1 || s.Frames != 1 {
		t.Fatalf("stats after lost request: %+v", s)
	}
}

func TestRoundTripReplyLost(t *testing.T) {
	// Drop only the second frame: the server runs, the reply dies on the
	// down link, and the caller sees ok=false with both frames accounted
	// and the lost reply's bytes on the down link.
	for seed := int64(0); seed < 64; seed++ {
		n := New(Config{RTT: time.Millisecond, Bandwidth: 1 << 30, PerFrameOverhead: 66, LossRate: 0.5, Seed: seed})
		served := false
		_, ok := n.RoundTrip(0, 64, 32, func(a time.Duration) time.Duration {
			served = true
			return a
		})
		if served && !ok {
			if s := n.Stats(); s.Frames != 2 || s.Dropped != 1 || s.BytesSent != 64+66 || s.BytesRecv != 32+66 {
				t.Fatalf("stats after lost reply: %+v", s)
			}
			return
		}
	}
	t.Fatal("no seed in [0,64) lost exactly the reply at 50% loss")
}

func TestCountRetransmitInvariants(t *testing.T) {
	n := New(Config{RTT: time.Millisecond, Bandwidth: 1 << 20, PerFrameOverhead: 66})
	before := n.Stats()
	arrive := n.CountRetransmit(0, 1000)
	s := n.Stats()
	if s.Retransmits != before.Retransmits+1 {
		t.Fatalf("retransmits = %d", s.Retransmits)
	}
	if s.Frames != before.Frames+1 {
		t.Fatalf("retransmitted frame not counted: %d", s.Frames)
	}
	if got := s.BytesSent - before.BytesSent; got != 1000+66 {
		t.Fatalf("retransmit bytes = %d, want %d", got, 1000+66)
	}
	if s.Messages != before.Messages {
		t.Fatal("a retransmission must not count as a new message")
	}
	// The duplicate occupies the uplink like any frame: ~1ms serialization
	// for 1066 bytes at 1 MB/s plus half-RTT propagation.
	if arrive < time.Millisecond {
		t.Fatalf("retransmitted frame arrived instantly: %v", arrive)
	}
	// And it queues behind itself: a second retransmit lands later.
	if second := n.CountRetransmit(0, 1000); second <= arrive {
		t.Fatalf("retransmissions did not serialize: %v then %v", arrive, second)
	}
}

func TestFragmentationAmplifiesLoss(t *testing.T) {
	// An 8 KB datagram spans six MTU fragments: at 10% fragment loss it
	// should die roughly 6x as often as a single-fragment datagram.
	const trials = 4000
	small := New(Config{RTT: 0, Bandwidth: 1 << 30, LossRate: 0.1, MTU: 1500, Seed: 3})
	big := New(Config{RTT: 0, Bandwidth: 1 << 30, LossRate: 0.1, MTU: 1500, Seed: 3})
	var smallLost, bigLost int
	for i := 0; i < trials; i++ {
		if _, ok := small.SendDatagram(0, 100, ClientToServer); !ok {
			smallLost++
		}
		if _, ok := big.SendDatagram(0, 8<<10, ClientToServer); !ok {
			bigLost++
		}
	}
	if smallLost == 0 || bigLost == 0 {
		t.Fatal("no losses at 10%")
	}
	ratio := float64(bigLost) / float64(smallLost)
	if ratio < 3 || ratio > 8 {
		t.Fatalf("fragmentation amplification ratio %.2f (big=%d small=%d), want ~4.7",
			ratio, bigLost, smallLost)
	}
}

func TestSegmentAndControlFrames(t *testing.T) {
	n := New(Config{RTT: 10 * time.Millisecond, Bandwidth: 1 << 20, PerFrameOverhead: 66})
	sent, arrive, ok := n.SendSegment(0, 1000, ClientToServer)
	if !ok {
		t.Fatal("segment lost on lossless link")
	}
	if sent <= 0 || arrive != sent+5*time.Millisecond {
		t.Fatalf("segment timing: sent=%v arrive=%v", sent, arrive)
	}
	// Segments self-serialize via the returned cursor, not the shared
	// horizon: a fluid Send at time zero is not queued behind them.
	a, _ := n.Send(0, 1000, ClientToServer)
	if a > arrive {
		t.Fatalf("fluid frame queued behind flow-level segment: %v vs %v", a, arrive)
	}
	ack := n.SendControl(arrive, 0, ServerToClient)
	if ack <= arrive {
		t.Fatal("control frame did not propagate")
	}
	if s := n.Stats(); s.Frames != 3 {
		t.Fatalf("frames = %d, want 3", s.Frames)
	}
}

// TestSharedBottleneckCouplesNetworks: two networks attached to one
// netqueue link contend for a single wire — the second network's frame
// queues behind the first's even though each network's private busy
// horizon is untouched.
func TestSharedBottleneckCouplesNetworks(t *testing.T) {
	link := netqueue.New(netqueue.Config{Bandwidth: 1 << 20, QueueBytes: 1 << 20})
	a := New(Config{RTT: 0, Bandwidth: 1 << 20, PerFrameOverhead: 0})
	b := New(Config{RTT: 0, Bandwidth: 1 << 20, PerFrameOverhead: 0})
	a.AttachShared(link.Endpoint())
	b.AttachShared(link.Endpoint())

	// A's 100 KB frame occupies the pipe ~100 ms; B's frame at t=1ms
	// must wait it out.
	if _, ok := a.Send(0, 100<<10, ClientToServer); !ok {
		t.Fatal("frame dropped")
	}
	arrive, ok := b.Send(time.Millisecond, 1<<10, ClientToServer)
	if !ok {
		t.Fatal("frame dropped")
	}
	if arrive < 95*time.Millisecond {
		t.Fatalf("second network's frame arrived at %v; no coupling through the shared link", arrive)
	}
	// The shared pipe did the serialization: the link saw both frames.
	if f := link.Stats().Up.Frames; f != 2 {
		t.Fatalf("link frames = %d, want 2", f)
	}
}

// TestSharedQueueDropReadsAsLoss: overflowing the shared buffer drops
// datagrams and TCP segments (the recoverable traffic), counted on both
// the link and the sending network — while stream-carried fluid messages
// and control frames are backpressured, never killed.
func TestSharedQueueDropReadsAsLoss(t *testing.T) {
	link := netqueue.New(netqueue.Config{Bandwidth: 1 << 20, QueueBytes: 4 << 10})
	n := New(Config{RTT: 0, Bandwidth: 1 << 20, PerFrameOverhead: 0})
	n.AttachShared(link.Endpoint())
	if _, ok := n.SendDatagram(0, 4<<10, ClientToServer); !ok {
		t.Fatal("first datagram dropped on an idle pipe")
	}
	if _, ok := n.SendDatagram(0, 4<<10, ClientToServer); ok {
		t.Fatal("second datagram accepted over a full buffer")
	}
	if n.Stats().Dropped != 1 {
		t.Fatalf("network dropped = %d, want 1", n.Stats().Dropped)
	}
	if link.Stats().Up.QueueDrops != 1 {
		t.Fatalf("link queue drops = %d, want 1", link.Stats().Up.QueueDrops)
	}
	// Segments see the same congestion signal (TCP's loss feedback): a
	// 1 KB segment finishes NIC serialization (~1 ms) while the 4 KB
	// datagram still fills the buffer, and the drop-tail check kills it.
	if _, _, ok := n.SendSegment(0, 1<<10, ClientToServer); ok {
		t.Fatal("segment accepted over a full buffer")
	}
	// Fluid stream messages are backpressured behind the backlog, not
	// dropped: the byte stream underneath would deliver them.
	arr, ok := n.Send(0, 4<<10, ClientToServer)
	if !ok {
		t.Fatal("stream message killed by the full buffer")
	}
	// One accepted 4 KB frame ahead at 1 MB/s (~3.9 ms) plus its own
	// serialization: arrival lands past 7 ms unless it jumped the queue.
	if arr < 7*time.Millisecond {
		t.Fatalf("stream message jumped the backlog: arrival %v", arr)
	}
	// Control frames are assured: they queue but never drop.
	if arr := n.SendControl(0, 0, ClientToServer); arr <= 0 {
		t.Fatalf("control frame arrival %v", arr)
	}
}

// SetBackground refuses a utilization outside [0, 1) in either direction,
// NaN included, with an error that leaves both directions as they were: a
// saturated wire has no residual capacity to simulate.
func TestSetBackgroundRefusesOutOfRange(t *testing.T) {
	for _, rho := range []float64{-0.1, 1, math.NaN()} {
		for _, up := range []bool{true, false} {
			n := New(DefaultLAN())
			var err error
			if up {
				err = n.SetBackground(rho, 0.5)
			} else {
				err = n.SetBackground(0.5, rho)
			}
			if err == nil {
				t.Errorf("SetBackground with %g (up %v) returned no error", rho, up)
			}
			if u, d := n.background(); u != 0 || d != 0 {
				t.Errorf("refused SetBackground with %g (up %v) left background %g/%g", rho, up, u, d)
			}
		}
	}
}
