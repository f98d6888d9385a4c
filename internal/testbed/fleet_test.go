package testbed

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/netqueue"
)

// bgCohort is a hand-built background demand for wiring tests (calibrated
// demands are exercised end-to-end by the core scaling tolerance test).
func bgCohort(clients int) fleet.Cohort {
	return fleet.Cohort{
		Clients: clients,
		Demand: fleet.Demand{
			ServerCPU:      500 * time.Microsecond,
			Disk:           2 * time.Millisecond,
			Think:          20 * time.Millisecond,
			MsgsPerOp:      2,
			DataBytesPerOp: 4096,
		},
	}
}

// clusterMkdirs runs n mkdirs per client and drains.
func clusterMkdirs(t *testing.T, cl *Cluster, n int) {
	t.Helper()
	drivers := make([]func() (bool, error), len(cl.Clients))
	for i, c := range cl.Clients {
		c, i := c, i
		k := 0
		drivers[i] = func() (bool, error) {
			if k >= n {
				return false, nil
			}
			k++
			return true, c.Mkdir(fmt.Sprintf("/c%d-%d", i, k))
		}
	}
	if err := cl.Run(drivers); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterHybridBackground verifies the fluid cohort wiring: the solved
// operating point is applied to the shared resources, foreground clients
// slow down against the residual capacity, and fleet counters stream.
func TestClusterHybridBackground(t *testing.T) {
	run := func(bg []fleet.Cohort) (*Cluster, []byte) {
		var buf bytes.Buffer
		cl, err := NewCluster(ClusterConfig{
			Config: Config{
				Kind:         NFSv3,
				DeviceBlocks: 8192,
				Seed:         7,
				Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
			},
			Clients:    2,
			Background: bg,
		})
		if err != nil {
			t.Fatal(err)
		}
		clusterMkdirs(t, cl, 4)
		cl.EmitSample()
		return cl, buf.Bytes()
	}

	mech, _ := run(nil)
	hyb, stream := run([]fleet.Cohort{bgCohort(30)})

	if mech.Fluid() != nil {
		t.Fatal("mechanistic cluster reports a fluid operating point")
	}
	op := hyb.Fluid()
	if op == nil {
		t.Fatal("hybrid cluster has no fluid operating point")
	}
	if op.Population != 32 || op.Background != 30 {
		t.Fatalf("population/background = %d/%d, want 32/30", op.Population, op.Background)
	}
	if rho := hyb.ServerCPU.Background(); rho <= 0 || rho >= 1 {
		t.Fatalf("server CPU background = %g, want in (0, 1)", rho)
	}
	if hyb.Horizon() <= mech.Horizon() {
		t.Fatalf("hybrid horizon %v not behind mechanistic %v: background load had no effect",
			hyb.Horizon(), mech.Horizon())
	}

	events, err := metrics.ReadEvents(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var ops, msgs int64
	for _, e := range events {
		if e.Subsys != metrics.SubsysFleet {
			continue
		}
		if e.Tags["background"] != "30" {
			t.Fatalf("fleet event background tag = %q, want 30", e.Tags["background"])
		}
		ops += e.Counters["ops"]
		msgs += e.Counters["messages"]
	}
	if ops <= 0 {
		t.Fatal("no fluid ops streamed")
	}
	wantOps := int64(op.BackgroundX * hyb.Horizon().Seconds())
	if ops != wantOps {
		t.Fatalf("streamed fleet ops = %d, want %d (rate x horizon)", ops, wantOps)
	}
	if msgs != int64(op.BackgroundX*op.Demand.MsgsPerOp*hyb.Horizon().Seconds()) {
		t.Fatalf("streamed fleet messages = %d", msgs)
	}
}

// TestClusterHybridBehindSharedLink verifies the fluid cohorts' wire share
// lands on a shared bottleneck: the link carries the solved background
// utilization of each direction times its bandwidth, and a foreground
// write behind it completes later than on the same cluster without
// cohorts.
func TestClusterHybridBehindSharedLink(t *testing.T) {
	const bw = 12 << 20
	write := func(bg []fleet.Cohort) (*Cluster, time.Duration) {
		cl, err := NewCluster(ClusterConfig{
			Config:     Config{Kind: ISCSI, DeviceBlocks: 8192, Seed: 5},
			Clients:    2,
			Shared:     &netqueue.Config{Bandwidth: bw},
			Background: bg,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := cl.Clients[0]
		if err := c.WriteFile("/f", make([]byte, 256<<10)); err != nil {
			t.Fatal(err)
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		return cl, c.Clock.Now()
	}
	co := bgCohort(30)
	co.Demand.UpBytes, co.Demand.DownBytes = 8192, 512
	_, alone := write(nil)
	hyb, behind := write([]fleet.Cohort{co})

	op := hyb.Fluid()
	if op == nil {
		t.Fatal("hybrid cluster has no fluid operating point")
	}
	if got := hyb.Link.Config().Bandwidth; got != bw {
		t.Fatalf("link bandwidth %d, want %d", got, bw)
	}
	// An idle link serializes a frame at the rate the background leaves.
	ep := hyb.Link.Endpoint()
	at := hyb.Horizon() + time.Hour
	for _, d := range []struct {
		dir     netqueue.Direction
		station int
	}{{netqueue.Up, fleet.StationUp}, {netqueue.Down, fleet.StationDown}} {
		load := int64(op.BackgroundUtil[d.station] * float64(bw))
		if load <= 0 {
			t.Fatalf("%s: solved background %d bytes/s, want positive", d.dir, load)
		}
		const size = 1 << 20
		sent, ok := ep.Send(at, size, d.dir)
		if want := at + time.Duration(size*int64(time.Second)/(bw-load)); !ok || sent != want {
			t.Fatalf("%s: 1 MiB frame sent at %v ok=%v, want %v (background %d bytes/s)", d.dir, sent, ok, want, load)
		}
	}
	t.Logf("background up/down %.3f/%.3f of the link; write done at %v alone, %v behind the cohorts",
		op.BackgroundUtil[fleet.StationUp], op.BackgroundUtil[fleet.StationDown], alone, behind)
	if behind <= alone {
		t.Fatalf("write behind the background finished at %v, alone at %v: the cohorts had no effect", behind, alone)
	}
}

// TestClusterHybridDeterministic verifies hybrid streams replay
// byte-identically, like every other cluster mode.
func TestClusterHybridDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		cl, err := NewCluster(ClusterConfig{
			Config: Config{
				Kind:         ISCSI,
				DeviceBlocks: 8192,
				Seed:         3,
				Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
			},
			Clients:    2,
			Background: []fleet.Cohort{bgCohort(14)},
		})
		if err != nil {
			t.Fatal(err)
		}
		clusterMkdirs(t, cl, 3)
		cl.EmitSample()
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("hybrid cluster streams differ between identical runs")
	}
}

// TestClusterTelemetrySampling verifies stratified per-client source
// sampling above the fan-in: each heterogeneity stratum contributes
// fan-in clients tagged sampled/population/sample, the rest register no
// sources, and Summarize re-weights counter totals back to the
// population.
func TestClusterTelemetrySampling(t *testing.T) {
	per := make([]ClientNet, 8)
	for i := 4; i < 8; i++ {
		per[i] = ClientNet{RTT: 10 * time.Millisecond}
	}
	var buf bytes.Buffer
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind:         NFSv3,
			DeviceBlocks: 8192,
			Seed:         11,
			Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
		},
		Clients:        8,
		PerClient:      per,
		TelemetryFanIn: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	clusterMkdirs(t, cl, 2)
	cl.EmitSample()

	events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	perStratum := map[string]map[string]bool{}
	var rpcCalls int64
	for _, e := range events {
		if e.Subsys != metrics.SubsysRPC {
			continue
		}
		if e.Tags[metrics.TagSampled] != "true" {
			t.Fatalf("unsampled RPC source above fan-in: %+v", e.Tags)
		}
		if e.Tags[metrics.TagPopulation] != "4" || e.Tags[metrics.TagSample] != "2" {
			t.Fatalf("population/sample tags = %q/%q, want 4/2",
				e.Tags[metrics.TagPopulation], e.Tags[metrics.TagSample])
		}
		s := perStratum[e.Tags["rtt"]]
		if s == nil {
			s = map[string]bool{}
			perStratum[e.Tags["rtt"]] = s
		}
		s[e.Tags["client"]] = true
		rpcCalls += e.Counters["calls"]
	}
	if len(perStratum) != 2 {
		t.Fatalf("sampled strata = %d, want 2 (per RTT class)", len(perStratum))
	}
	for rtt, clients := range perStratum {
		if len(clients) != 2 {
			t.Fatalf("stratum rtt=%s sampled %d clients, want 2", rtt, len(clients))
		}
	}

	// Summarize re-weights the sampled counters: 2-of-4 per stratum means
	// totals scale by 2 back to the full population.
	sum := metrics.Summarize(events, nil)
	var weighted int64
	for _, g := range sum.Groups {
		if g.Subsys == metrics.SubsysRPC {
			weighted += g.Counters["calls"]
		}
	}
	if weighted != 2*rpcCalls {
		t.Fatalf("re-weighted calls = %d, want %d (2x raw %d)", weighted, 2*rpcCalls, rpcCalls)
	}
}

// TestClusterTelemetrySamplingDisabled verifies a negative fan-in
// registers every client, and clusters at or below the fan-in stay
// exhaustive and untagged.
func TestClusterTelemetrySamplingDisabled(t *testing.T) {
	for _, fanIn := range []int{-1, 8} {
		var buf bytes.Buffer
		cl, err := NewCluster(ClusterConfig{
			Config: Config{
				Kind:         NFSv3,
				DeviceBlocks: 8192,
				Seed:         11,
				Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
			},
			Clients:        8,
			TelemetryFanIn: fanIn,
		})
		if err != nil {
			t.Fatal(err)
		}
		clusterMkdirs(t, cl, 1)
		cl.EmitSample()
		events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		clients := map[string]bool{}
		for _, e := range events {
			if e.Subsys == metrics.SubsysRPC {
				if e.Tags[metrics.TagSampled] != "" {
					t.Fatalf("fanIn=%d: sampled tag on exhaustive stream", fanIn)
				}
				clients[e.Tags["client"]] = true
			}
		}
		if len(clients) != 8 {
			t.Fatalf("fanIn=%d: %d client sources, want 8", fanIn, len(clients))
		}
	}
}
