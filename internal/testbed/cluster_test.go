package testbed

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestDrainColdCacheAllStacks exercises the measurement controls on every
// protocol stack: data written before Drain+ColdCache must read back
// identically, and the cold read must hit the network again.
func TestDrainColdCacheAllStacks(t *testing.T) {
	for _, kind := range AllKinds {
		t.Run(kind.String(), func(t *testing.T) {
			tb, err := New(Config{Kind: kind, DeviceBlocks: 65536})
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("durable"), 1000)
			if err := tb.WriteFile("/f", payload); err != nil {
				t.Fatal(err)
			}
			if err := tb.Drain(); err != nil {
				t.Fatal(err)
			}
			preDrain := tb.Snap()
			if err := tb.Drain(); err != nil {
				t.Fatal(err)
			}
			if d := tb.Since(preDrain); d.Messages != 0 {
				t.Errorf("second drain not idempotent: %d messages", d.Messages)
			}
			if err := tb.ColdCache(); err != nil {
				t.Fatal(err)
			}
			before := tb.Snap()
			got, err := tb.ReadFile("/f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("data corrupted across cold cache")
			}
			if d := tb.Since(before); d.Messages == 0 {
				t.Error("cold read generated no protocol messages")
			}
		})
	}
}

// TestClusterBasicOps brings up a small cluster on every stack and has
// each client do private work concurrently; every client must see its own
// data and only its own data.
func TestClusterBasicOps(t *testing.T) {
	for _, kind := range AllKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cl, err := NewCluster(ClusterConfig{Config: Config{Kind: kind, DeviceBlocks: 65536}, Clients: 3})
			if err != nil {
				t.Fatal(err)
			}
			drivers := make([]func() (bool, error), len(cl.Clients))
			for i, c := range cl.Clients {
				i, c := i, c
				step := 0
				dir := fmt.Sprintf("/c%d", i)
				drivers[i] = func() (bool, error) {
					defer func() { step++ }()
					switch step {
					case 0:
						return true, c.Mkdir(dir)
					case 1:
						return true, c.WriteFile(dir+"/f", bytes.Repeat([]byte{byte('a' + i)}, 4096))
					default:
						return false, nil
					}
				}
			}
			if err := cl.Run(drivers); err != nil {
				t.Fatal(err)
			}
			if err := cl.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := cl.ColdCache(); err != nil {
				t.Fatal(err)
			}
			for i, c := range cl.Clients {
				got, err := c.ReadFile(fmt.Sprintf("/c%d/f", i))
				if err != nil {
					t.Fatalf("client %d: %v", i, err)
				}
				if !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, 4096)) {
					t.Fatalf("client %d read wrong data", i)
				}
			}
			// All clients share one timeline barrier after Drain.
			h := cl.Horizon()
			for _, c := range cl.Clients {
				if c.Clock.Now() > h {
					t.Fatal("client clock beyond horizon")
				}
			}
		})
	}
}

// TestClusterSharedNamespaceNFS verifies NFS clients share one export: a
// file written by client 0 (and drained) is visible to client 1.
func TestClusterSharedNamespaceNFS(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Config: Config{Kind: NFSv3, DeviceBlocks: 65536}, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("shared export")
	if err := cl.Clients[0].WriteFile("/shared", payload); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Clients[1].ReadFile("/shared")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("client 1 read %q", got)
	}
}

// TestClusterDeterministic runs an identical contended cluster workload
// twice and requires byte-identical counters and clocks.
func TestClusterDeterministic(t *testing.T) {
	for _, kind := range []Kind{NFSv3, ISCSI} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func() string {
				cl, err := NewCluster(ClusterConfig{Config: Config{Kind: kind, DeviceBlocks: 65536, Seed: 11}, Clients: 4})
				if err != nil {
					t.Fatal(err)
				}
				drivers := make([]func() (bool, error), len(cl.Clients))
				for i, c := range cl.Clients {
					i, c := i, c
					dir := fmt.Sprintf("/c%d", i)
					if err := c.Mkdir(dir); err != nil {
						t.Fatal(err)
					}
					n := 0
					drivers[i] = func() (bool, error) {
						err := c.WriteFile(fmt.Sprintf("%s/f%d", dir, n), bytes.Repeat([]byte{1}, 8192))
						n++
						return n < 10+2*i, err
					}
				}
				if err := cl.Run(drivers); err != nil {
					t.Fatal(err)
				}
				if err := cl.Drain(); err != nil {
					t.Fatal(err)
				}
				s := cl.Snap()
				out := fmt.Sprintf("%+v", s)
				for _, c := range cl.Clients {
					out += fmt.Sprintf("|%d:%v:%d", c.ID, c.Clock.Now(), c.Ops())
				}
				return out
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("nondeterministic cluster:\n%s\n%s", a, b)
			}
		})
	}
}

// TestClusterContentionSlowsClients verifies shared-resource semantics: the
// same per-client workload takes longer (per client) on a crowded cluster
// than alone, and the server CPU does strictly more total work.
func TestClusterContentionSlowsClients(t *testing.T) {
	elapsed := func(n int) (perClient time.Duration, serverBusy time.Duration) {
		cl, err := NewCluster(ClusterConfig{Config: Config{Kind: NFSv3, DeviceBlocks: 131072}, Clients: n})
		if err != nil {
			t.Fatal(err)
		}
		start := make([]time.Duration, n)
		drivers := make([]func() (bool, error), n)
		for i, c := range cl.Clients {
			i, c := i, c
			dir := fmt.Sprintf("/c%d", i)
			if err := c.Mkdir(dir); err != nil {
				t.Fatal(err)
			}
			start[i] = c.Clock.Now()
			k := 0
			drivers[i] = func() (bool, error) {
				err := c.WriteFile(fmt.Sprintf("%s/f%d", dir, k), bytes.Repeat([]byte{7}, 65536))
				k++
				return k < 20, err
			}
		}
		if err := cl.Run(drivers); err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for i, c := range cl.Clients {
			sum += c.Clock.Now() - start[i]
		}
		return sum / time.Duration(n), cl.ServerCPU.Busy()
	}
	lat1, busy1 := elapsed(1)
	lat8, busy8 := elapsed(8)
	if lat8 <= lat1 {
		t.Errorf("8-way contention not slower per client: %v vs %v", lat8, lat1)
	}
	if busy8 <= busy1 {
		t.Errorf("8 clients did not cost more server CPU: %v vs %v", busy8, busy1)
	}
}
