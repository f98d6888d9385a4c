package simnet

import (
	"testing"
	"time"
)

func TestOutageWindowDropsFrames(t *testing.T) {
	n := New(Config{RTT: time.Millisecond, Bandwidth: 1 << 30})
	n.SetOutage(10*time.Millisecond, 20*time.Millisecond)

	if _, ok := n.Send(0, 100, ClientToServer); !ok {
		t.Fatal("frame before the outage dropped")
	}
	if _, ok := n.Send(10*time.Millisecond, 100, ClientToServer); ok {
		t.Fatal("frame at the partition start survived")
	}
	if _, ok := n.Send(15*time.Millisecond, 100, ClientToServer); ok {
		t.Fatal("frame inside the window survived")
	}
	// Control traffic (ARP/ICMP-class assurances) passes the partition.
	if arrive := n.SendControl(15*time.Millisecond, 100, ClientToServer); arrive <= 15*time.Millisecond {
		t.Fatalf("control frame mis-timed: %v", arrive)
	}
	// The heal instant is exclusive: a frame starting at `until` lives.
	if _, ok := n.Send(20*time.Millisecond, 100, ClientToServer); !ok {
		t.Fatal("frame at the heal instant dropped")
	}
	if got := n.Stats().Dropped; got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
}

func TestOutageWindowDropsSegments(t *testing.T) {
	n := New(Config{RTT: time.Millisecond, Bandwidth: 1 << 30})
	n.SetOutage(0, 5*time.Millisecond)
	if _, _, ok := n.SendSegment(time.Millisecond, 1460, ClientToServer); ok {
		t.Fatal("segment inside the window survived")
	}
	if _, _, ok := n.SendSegment(5*time.Millisecond, 1460, ClientToServer); !ok {
		t.Fatal("segment after the window dropped")
	}
	if from, until := n.outage(); from != 0 || until != 5*time.Millisecond {
		t.Fatalf("Outage() = %v, %v", from, until)
	}
}
