package testbed

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netqueue"
	"repro/internal/vfs"
)

// sharedCluster builds an instrumented cluster over a shared bottleneck.
func sharedCluster(t *testing.T, kind Kind, tr Transport, n int, link netqueue.Config,
	perClient []ClientNet, sink *metrics.Sink) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind:         kind,
			DeviceBlocks: 16384,
			Seed:         11,
			Transport:    tr,
			Metrics:      metrics.NewRecorder(sink, nil),
		},
		Clients:   n,
		Shared:    &link,
		PerClient: perClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// seqWriteSteps returns a resumable driver writing fileBytes to path in
// 4 KB chunks (a minimal local stand-in for workload.SequentialWriteSteps,
// which lives above this package).
func seqWriteSteps(c *Client, path string, fileBytes int64) func() (bool, error) {
	const chunk = 4096
	var f vfs.File
	var off int64
	buf := make([]byte, chunk)
	return func() (bool, error) {
		if f == nil {
			var err error
			f, err = c.Create(path)
			return err == nil, err
		}
		if off >= fileBytes {
			return false, c.Close(f)
		}
		_, err := c.WriteFileAt(f, off, buf)
		off += chunk
		return err == nil, err
	}
}

// runSeqWrites drives one sequential writer per client and returns the
// measured window plus each client's clock at the end of its run phase
// (before the drain barrier aligns them).
func runSeqWrites(t *testing.T, cl *Cluster, fileBytes int64) (d Delta, finished []time.Duration) {
	t.Helper()
	for i, c := range cl.Clients {
		if err := c.Mkdir(fmt.Sprintf("/c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Align()
	before := cl.Snap()
	drivers := make([]func() (bool, error), len(cl.Clients))
	for i, c := range cl.Clients {
		drivers[i] = seqWriteSteps(c, fmt.Sprintf("/c%d/f", i), fileBytes)
	}
	if err := cl.Run(drivers); err != nil {
		t.Fatal(err)
	}
	finished = make([]time.Duration, len(cl.Clients))
	for i, c := range cl.Clients {
		finished[i] = c.Clock.Now()
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	return cl.Since(before), finished
}

// TestClusterSharedLinkDeterministic: identical seeds through the shared
// bottleneck give byte-identical metrics streams — the property that
// extends the stream-determinism guarantee to the congestion-coupled
// mode (fluid and TCP wire models, drop-tail and DRR).
func TestClusterSharedLinkDeterministic(t *testing.T) {
	for _, kind := range []Kind{NFSv3, ISCSI} {
		for _, tr := range []Transport{TransportFluid, TransportTCP} {
			for _, q := range []netqueue.Discipline{netqueue.DropTail, netqueue.DRR} {
				t.Run(fmt.Sprintf("%s-%s-%s", kind.Tag(), tr, q), func(t *testing.T) {
					run := func() []byte {
						var buf bytes.Buffer
						link := netqueue.Config{Bandwidth: 4 << 20, QueueBytes: 64 << 10, Discipline: q}
						straggler := []ClientNet{{}, {RTT: 10 * time.Millisecond, LossRate: 0.01}}
						cl := sharedCluster(t, kind, tr, 2, link, straggler, metrics.NewSink(&buf))
						_, _ = runSeqWrites(t, cl, 64<<10)
						cl.EmitSample()
						return buf.Bytes()
					}
					a := run()
					if len(a) == 0 {
						t.Fatal("empty event stream")
					}
					if !bytes.Equal(a, run()) {
						t.Fatal("shared-link streams differ between identical runs")
					}
					if _, err := metrics.ReadEvents(bytes.NewReader(a)); err != nil {
						t.Fatalf("stream does not validate: %v", err)
					}
				})
			}
		}
	}
}

// TestClusterSharedBottleneckPlateau is the acceptance criterion at the
// cluster level: with the pipe as the bottleneck, aggregate wire
// throughput pins to link capacity (within 5%) as clients are added,
// while per-client syscall latency grows with the standing queue.
func TestClusterSharedBottleneckPlateau(t *testing.T) {
	const capacity = 2 << 20 // 2 MB/s pipe: far below the array and CPUs
	measure := func(n int) (upRate float64, latency time.Duration) {
		cl := sharedCluster(t, ISCSI, TransportFluid, n,
			netqueue.Config{Bandwidth: capacity, QueueBytes: 256 << 10}, nil, nil)
		start := make([]time.Duration, n)
		ops := make([]int64, n)
		for i, c := range cl.Clients {
			start[i] = c.Clock.Now()
			ops[i] = c.Ops()
		}
		d, _ := runSeqWrites(t, cl, 192<<10)
		var latSum time.Duration
		for i, c := range cl.Clients {
			if dn := c.Ops() - ops[i]; dn > 0 {
				latSum += (c.Clock.Now() - start[i]) / time.Duration(dn)
			}
		}
		up := cl.Link.Stats().Up
		return float64(up.Bytes) / d.Elapsed.Seconds(), latSum / time.Duration(n)
	}

	var prevLat time.Duration
	for i, n := range []int{2, 4, 8} {
		rate, lat := measure(n)
		if rate > 1.05*capacity {
			t.Fatalf("n=%d: wire rate %.0f B/s exceeds the %d B/s pipe", n, rate, capacity)
		}
		if rate < 0.95*capacity {
			t.Fatalf("n=%d: wire rate %.0f B/s, want within 5%% of the %d B/s pipe", n, rate, capacity)
		}
		if i > 0 && lat <= prevLat {
			t.Fatalf("n=%d: per-client latency %v did not grow past %v with queue depth", n, lat, prevLat)
		}
		prevLat = lat
	}
}

// TestClusterStragglerTags: per-client metric sources in heterogeneous
// mode carry that client's rtt/loss tags, so straggler attribution is a
// `cmd/metrics -by client` query; homogeneous clusters stay untagged.
func TestClusterStragglerTags(t *testing.T) {
	var buf bytes.Buffer
	link := netqueue.Config{Bandwidth: 32 << 20, QueueBytes: 256 << 10}
	cl := sharedCluster(t, NFSv3, TransportFluid, 2, link,
		[]ClientNet{{}, {RTT: 40 * time.Millisecond, LossRate: 0.01}},
		metrics.NewSink(&buf))
	_, finished := runSeqWrites(t, cl, 32<<10)
	cl.EmitSample()

	events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rtt := map[string]string{}
	loss := map[string]string{}
	sawLink := false
	for _, e := range events {
		if e.Subsys == metrics.SubsysNet && e.Tags["link"] == "shared" {
			sawLink = true
			continue
		}
		if c := e.Tags["client"]; c != "" {
			if v := e.Tags["rtt"]; v != "" {
				rtt[c] = v
			}
			if v := e.Tags["loss"]; v != "" {
				loss[c] = v
			}
		}
	}
	if !sawLink {
		t.Fatal("no shared-link net source in the stream")
	}
	if rtt["0"] != "200µs" || rtt["1"] != "40ms" {
		t.Fatalf("per-client rtt tags = %v", rtt)
	}
	if loss["0"] != "0" || loss["1"] != "0.01" {
		t.Fatalf("per-client loss tags = %v", loss)
	}

	// A straggler must actually straggle: client 1's run phase outlasts
	// the LAN client's.
	if finished[1] <= finished[0] {
		t.Fatalf("WAN straggler finished at %v, before LAN client at %v", finished[1], finished[0])
	}
}

// TestClusterPerClientWithoutBottleneck: PerClient heterogeneity alone
// (no Shared link) still gives each client its own network and tags.
func TestClusterPerClientWithoutBottleneck(t *testing.T) {
	var buf bytes.Buffer
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind:         ISCSI,
			DeviceBlocks: 16384,
			Seed:         3,
			Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
		},
		Clients:   2,
		PerClient: []ClientNet{{}, {RTT: 20 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Link != nil {
		t.Fatal("no Shared config, but a bottleneck link was built")
	}
	if cl.clientNetwork(0) == cl.clientNetwork(1) {
		t.Fatal("PerClient heterogeneity did not split the networks")
	}
	if cl.clientNetwork(1).RTT() != 20*time.Millisecond {
		t.Fatalf("client 1 RTT = %v", cl.clientNetwork(1).RTT())
	}
}

// TestClusterConfigValidation rejects malformed heterogeneity configs.
func TestClusterConfigValidation(t *testing.T) {
	nfs := Config{Kind: NFSv3}
	bad := []ClusterConfig{
		{Config: nfs, Clients: 1, PerClient: []ClientNet{{}, {}}},
		{Config: nfs, Clients: 2, PerClient: []ClientNet{{LossRate: 1.5}}},
		{Config: nfs, Clients: 2, PerClient: []ClientNet{{RTT: -time.Second}}},
		{Config: nfs, Clients: 2, Shared: &netqueue.Config{Bandwidth: -1}},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

// TestClusterSingleClientHeterogeneous: a 1-client cluster in shared
// mode still uses the per-client network plumbing (regression: the
// instrument path once dispatched on net count instead of mode and
// sampled a nil shared segment).
func TestClusterSingleClientHeterogeneous(t *testing.T) {
	var buf bytes.Buffer
	link := netqueue.Config{Bandwidth: 8 << 20, QueueBytes: 64 << 10}
	cl := sharedCluster(t, NFSv3, TransportFluid, 1, link,
		[]ClientNet{{RTT: 40 * time.Millisecond}}, metrics.NewSink(&buf))
	if cl.Net != nil {
		t.Fatal("heterogeneous cluster still exposes a shared segment")
	}
	_, _ = runSeqWrites(t, cl, 16<<10)
	cl.EmitSample()
	events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, e := range events {
		if e.Subsys == metrics.SubsysNet && e.Tags["client"] == "0" && e.Tags["rtt"] == "40ms" {
			saw = true
		}
	}
	if !saw {
		t.Fatal("single heterogeneous client has no tagged net source")
	}
}

// TestPartitionNetOnSharedBottleneck: a partition of a cluster behind a
// shared bottleneck drops frames only while it lasts. Writes issued before
// [from, until) see no drop; writes issued inside it lose frames and
// complete once it ends; writes after it pass without a drop. On the TCP
// wire the drops are the bottleneck's: its segments are the droppable frames
// the link admits. On the fluid wire a stream frame dies on the client's own
// wire, before the link would admit it assured, so in every phase the link
// carries exactly the frames that survived the client wires.
func TestPartitionNetOnSharedBottleneck(t *testing.T) {
	for _, kind := range []Kind{NFSv3, ISCSI} {
		t.Run(kind.Tag(), func(t *testing.T) {
			for _, tr := range []Transport{TransportTCP, TransportFluid} {
				t.Run(tr.String(), func(t *testing.T) {
					cl := sharedCluster(t, kind, tr, 2, netqueue.Config{}, nil, nil)
					defer cl.Close()
					// crossed is what the client wires passed on to the link,
					// and carried what the link counted.
					crossed := func() (crossed, carried int64) {
						for _, n := range cl.nets {
							s := n.Stats()
							crossed += s.Frames - s.Dropped
						}
						s := cl.Link.Stats()
						return crossed, s.Up.Frames + s.Down.Frames
					}
					drops := func() int64 {
						if tr == TransportTCP {
							return cl.Link.Stats().Drops()
						}
						var d int64
						for _, n := range cl.nets {
							d += n.Stats().Dropped
						}
						return d
					}
					data := make([]byte, 16<<10)
					write := func(phase string) {
						t.Helper()
						crossed0, carried0 := crossed()
						drivers := make([]func() (bool, error), len(cl.Clients))
						for i, c := range cl.Clients {
							c, path := c, fmt.Sprintf("/%s-%d", phase, i)
							drivers[i] = func() (bool, error) {
								if err := c.WriteFile(path, data); err != nil {
									return false, err
								}
								return false, c.Drain()
							}
						}
						if err := cl.Run(drivers); err != nil {
							t.Fatalf("%s the partition: %v", phase, err)
						}
						if crossed1, carried1 := crossed(); tr == TransportFluid && carried1-carried0 != crossed1-crossed0 {
							t.Errorf("%s the partition: the link carried %d frames, the client wires passed it %d",
								phase, carried1-carried0, crossed1-crossed0)
						}
					}

					from := cl.Align() + 200*time.Millisecond
					until := from + 500*time.Millisecond
					cl.PartitionNet(from, until)

					write("before")
					for i, c := range cl.Clients {
						if now := c.Clock.Now(); now >= from {
							t.Fatalf("client %d finished its first write at %v, not before the partition at %v", i, now, from)
						}
					}
					if d := drops(); d != 0 {
						t.Fatalf("%d frames dropped before the partition", d)
					}

					for _, c := range cl.Clients {
						c.IdleUntil(from)
					}
					write("during")
					inside := drops()
					if inside == 0 {
						t.Fatal("no frame dropped during the partition")
					}
					for i, c := range cl.Clients {
						if now := c.Clock.Now(); now < until {
							t.Errorf("client %d finished a write issued in the partition at %v, before it ends at %v", i, now, until)
						}
					}

					write("after")
					if d := drops() - inside; d != 0 {
						t.Errorf("%d frames dropped after the partition ended", d)
					}
				})
			}
		})
	}
}
