package testbed

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/netqueue"
)

// stationShape is one cluster shape whose registration order no golden
// pins: which planes are attached and what the clients do before the one
// sample and the one scrape.
type stationShape struct {
	name             string
	cfg              ClusterConfig
	recorder, health bool
}

// stationShapes are the shapes TestStationOrder walks: every optional
// shared station, sampling with per-client tags, and each plane alone.
func stationShapes() []stationShape {
	per := []ClientNet{
		{RTT: time.Millisecond},
		{RTT: time.Millisecond},
		{RTT: time.Millisecond},
		{RTT: 5 * time.Millisecond, LossRate: 0.01},
		{RTT: 5 * time.Millisecond, LossRate: 0.01},
	}
	small := Config{DeviceBlocks: 8192, Seed: 3}
	with := func(k Kind, tr Transport) Config { c := small; c.Kind, c.Transport = k, tr; return c }
	return []stationShape{
		{"nfsv4-tcp-sharing-shared-link-sampled", ClusterConfig{
			Config:         with(NFSv4, TransportTCP),
			Clients:        5,
			Shared:         &netqueue.Config{Bandwidth: 32 << 20, QueueBytes: 256 << 10},
			PerClient:      per,
			TelemetryFanIn: 2,
			Sharing:        &SharingConfig{Delegation: true, GracePeriod: time.Second},
		}, true, true},
		{"iscsi-tcp-sharing-background", ClusterConfig{
			Config:     with(ISCSI, TransportTCP),
			Clients:    2,
			Background: []fleet.Cohort{bgCohort(10)},
			Sharing:    &SharingConfig{},
		}, true, true},
		{"nfsv3-monitor-only", ClusterConfig{Config: with(NFSv3, TransportFluid), Clients: 2}, false, true},
		{"iscsi-recorder-only", ClusterConfig{Config: with(ISCSI, TransportFluid), Clients: 2}, true, false},
	}
}

// stationSequence builds shape, moves every counter it can, emits one
// sample and one scrape, and returns the (subsys, tags) of each sample
// event and the (station, tags) of each gauge event in stream order.
func stationSequence(t *testing.T, sh stationShape) []string {
	t.Helper()
	var buf bytes.Buffer
	rec := metrics.NewRecorder(metrics.NewSink(&buf), nil)
	cfg := sh.cfg
	if sh.recorder {
		cfg.Metrics = rec
	}
	if sh.health {
		mon, err := health.New(health.Config{Interval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Health = mon
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sh.recorder {
		// The cluster has no stream of its own: send the gauges to one.
		cl.Health().Bind(rec)
	}
	for i, c := range cl.Clients {
		own := fmt.Sprintf("/s%d", i)
		if err := c.WriteFile(own, make([]byte, 8192)); err != nil {
			t.Fatal(err)
		}
		// NFS clients share one namespace: touch client 0's file, so
		// the delegation table recalls.
		common := "/s0"
		if cfg.Kind == ISCSI {
			common = own
		}
		if _, err := c.Stat(common); err != nil {
			t.Fatal(err)
		}
		if cfg.Sharing == nil {
			continue
		}
		if err := c.Utimes(common); err != nil {
			t.Fatal(err)
		}
		if err := c.OpenShared(i == 0); err != nil {
			t.Fatal(err)
		}
		if ok, err := c.TryLockShared(0, 4096, true); err != nil || !ok {
			t.Fatalf("client %d lock: ok=%v err=%v", i, ok, err)
		}
		if err := c.UnlockShared(0, 4096, true); err != nil {
			t.Fatal(err)
		}
	}
	cl.EmitSample()
	cl.Health().Scrape(cl.Horizon())
	events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	for _, e := range events {
		switch {
		case e.Kind == metrics.KindSample:
			seq = append(seq, strings.TrimSpace(e.Subsys+" "+tagString(e.Tags, "")))
		case e.Subsys == metrics.SubsysGauge:
			seq = append(seq, strings.TrimSpace("gauge "+e.Tags["station"]+" "+tagString(e.Tags, "station")))
		}
	}
	return seq
}

// tagString renders tags sorted by key, without skip.
func tagString(tags metrics.Tags, skip string) string {
	var kv []string
	for k, v := range tags {
		if k != skip {
			kv = append(kv, k+"="+v)
		}
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}

// TestStationOrder pins the order in which a cluster registers its
// counter and gauge sources, and the tags each carries, for shapes no
// golden covers: shared stations first (bottleneck link, array, server
// CPU, the lock, lease and reservation tables, the fleet, the NFS server
// and its ext3), then each sampled client's network, CPU and stack, with
// a monitor or a recorder alone as well as both.
func TestStationOrder(t *testing.T) {
	for _, sh := range stationShapes() {
		t.Run(sh.name, func(t *testing.T) {
			got := stationSequence(t, sh)
			want := stationOrderWant[sh.name]
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("station sequence:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

var stationOrderWant = map[string][]string{
	"nfsv4-tcp-sharing-shared-link-sampled": {
		"net link=shared,transport=tcp",
		"disk transport=tcp",
		"cpu host=server,transport=tcp",
		"lock transport=tcp",
		"lease transport=tcp",
		"nfs transport=tcp",
		"ext3 host=server,transport=tcp",
		"net client=0,loss=0,population=3,rtt=1ms,sample=2,sampled=true,transport=tcp",
		"cpu client=0,host=client,loss=0,population=3,rtt=1ms,sample=2,sampled=true,transport=tcp",
		"rpc client=0,loss=0,population=3,rtt=1ms,sample=2,sampled=true,transport=tcp",
		"tcp client=0,loss=0,population=3,rtt=1ms,sample=2,sampled=true,transport=tcp",
		"net client=1,loss=0,population=3,rtt=1ms,sample=2,sampled=true,transport=tcp",
		"cpu client=1,host=client,loss=0,population=3,rtt=1ms,sample=2,sampled=true,transport=tcp",
		"rpc client=1,loss=0,population=3,rtt=1ms,sample=2,sampled=true,transport=tcp",
		"tcp client=1,loss=0,population=3,rtt=1ms,sample=2,sampled=true,transport=tcp",
		"net client=3,loss=0.01,rtt=5ms,transport=tcp",
		"cpu client=3,host=client,loss=0.01,rtt=5ms,transport=tcp",
		"rpc client=3,loss=0.01,rtt=5ms,transport=tcp",
		"tcp client=3,loss=0.01,rtt=5ms,transport=tcp",
		"net client=4,loss=0.01,rtt=5ms,transport=tcp",
		"cpu client=4,host=client,loss=0.01,rtt=5ms,transport=tcp",
		"rpc client=4,loss=0.01,rtt=5ms,transport=tcp",
		"tcp client=4,loss=0.01,rtt=5ms,transport=tcp",
		"gauge net.shared transport=tcp",
		"gauge disk transport=tcp",
		"gauge cpu.server transport=tcp",
		"gauge lock transport=tcp",
		"gauge cpu.client client=0,transport=tcp",
		"gauge rpc client=0,transport=tcp",
		"gauge tcp client=0,transport=tcp",
		"gauge cpu.client client=1,transport=tcp",
		"gauge rpc client=1,transport=tcp",
		"gauge tcp client=1,transport=tcp",
		"gauge cpu.client client=3,transport=tcp",
		"gauge rpc client=3,transport=tcp",
		"gauge tcp client=3,transport=tcp",
		"gauge cpu.client client=4,transport=tcp",
		"gauge rpc client=4,transport=tcp",
		"gauge tcp client=4,transport=tcp",
	},
	"iscsi-tcp-sharing-background": {
		"net transport=tcp",
		"disk transport=tcp",
		"cpu host=server,transport=tcp",
		"lock proto=scsi,transport=tcp",
		"fleet background=10,transport=tcp",
		"cpu client=0,host=client,transport=tcp",
		"iscsi client=0,transport=tcp",
		"tcp client=0,transport=tcp",
		"ext3 client=0,host=client,transport=tcp",
		"cpu client=1,host=client,transport=tcp",
		"iscsi client=1,transport=tcp",
		"tcp client=1,transport=tcp",
		"ext3 client=1,host=client,transport=tcp",
		"gauge disk transport=tcp",
		"gauge cpu.server transport=tcp",
		"gauge cpu.client client=0,transport=tcp",
		"gauge tcp client=0,transport=tcp",
		"gauge cpu.client client=1,transport=tcp",
		"gauge tcp client=1,transport=tcp",
	},
	"nfsv3-monitor-only": {
		"gauge disk",
		"gauge cpu.server",
		"gauge cpu.client client=0",
		"gauge rpc client=0",
		"gauge cpu.client client=1",
		"gauge rpc client=1",
	},
	"iscsi-recorder-only": {
		"net transport=fluid",
		"disk transport=fluid",
		"cpu host=server,transport=fluid",
		"cpu client=0,host=client,transport=fluid",
		"iscsi client=0,transport=fluid",
		"ext3 client=0,host=client,transport=fluid",
		"cpu client=1,host=client,transport=fluid",
		"iscsi client=1,transport=fluid",
		"ext3 client=1,host=client,transport=fluid",
	},
}
