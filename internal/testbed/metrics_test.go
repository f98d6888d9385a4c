package testbed

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
)

// metricsRun drives a small mixed workload on an instrumented testbed and
// returns the resulting telemetry stream.
func metricsRun(t *testing.T, kind Kind, transport Transport) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := metrics.NewRecorder(metrics.NewSink(&buf),
		metrics.Tags{"stack": kind.Tag()})
	tb, err := New(Config{
		Kind:         kind,
		DeviceBlocks: 8192,
		Seed:         42,
		Transport:    transport,
		Metrics:      rec,
	})
	if err != nil {
		t.Fatalf("%v/%v: %v", kind, transport, err)
	}
	tb.EmitSample() // flush mount traffic
	tb.Cluster.Metrics().Mark(tb.Clock.Now(), metrics.Tags{"phase": "begin"})
	if err := tb.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteFile("/d/f", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ReadFile("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Drain(); err != nil {
		t.Fatal(err)
	}
	tb.EmitSample()
	tb.Cluster.Metrics().Mark(tb.Clock.Now(), metrics.Tags{"phase": "end"})
	return buf.Bytes()
}

// TestMetricsStreamDeterministic replays the same seed twice on every
// stack under both the fluid and TCP wire models and requires the event
// streams to be byte-identical and schema-valid — the property that lets
// sweeps be post-processed instead of re-run.
func TestMetricsStreamDeterministic(t *testing.T) {
	for _, kind := range AllKinds {
		for _, tr := range []Transport{TransportFluid, TransportTCP} {
			t.Run(fmt.Sprintf("%s-%s", kind.Tag(), tr), func(t *testing.T) {
				a := metricsRun(t, kind, tr)
				b := metricsRun(t, kind, tr)
				if len(a) == 0 {
					t.Fatal("empty event stream")
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("streams differ between identical runs:\n%s\n----\n%s", a, b)
				}
				events, err := metrics.ReadEvents(bytes.NewReader(a))
				if err != nil {
					t.Fatalf("stream does not validate: %v", err)
				}
				// Every subsystem the stack exercises must have reported.
				seen := map[string]bool{}
				for _, e := range events {
					seen[e.Subsys] = true
				}
				want := []string{metrics.SubsysNet, metrics.SubsysDisk,
					metrics.SubsysCPU, metrics.SubsysRun}
				if kind == ISCSI {
					want = append(want, metrics.SubsysISCSI, metrics.SubsysExt3)
				} else {
					want = append(want, metrics.SubsysRPC, metrics.SubsysNFS,
						metrics.SubsysExt3)
				}
				if tr == TransportTCP {
					want = append(want, metrics.SubsysTCP)
				}
				for _, s := range want {
					if !seen[s] {
						t.Errorf("no %s events in stream", s)
					}
				}
			})
		}
	}
}

// TestColdCacheCountersStayExact: a cold-cache remount replaces the
// iSCSI client's ext3 (re-zeroing its cache counters); the stack folds
// the retired filesystem into a base accumulator and ColdCache flushes a
// sample before the rebuild, so the stream's summed deltas must equal
// the true cumulative counters — even though the fresh filesystem's
// counters later climb past their pre-remount values.
func TestColdCacheCountersStayExact(t *testing.T) {
	var buf bytes.Buffer
	tb, err := New(Config{
		Kind:         ISCSI,
		DeviceBlocks: 8192,
		Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteFile("/pre", make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	st := tb.stack.(*iscsiStack)
	preMisses := st.fsCounters()["cache_misses"]
	if err := tb.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if len(st.fsBase) == 0 {
		t.Fatal("ColdCache did not fold the retired filesystem into fsBase")
	}
	// Enough post-remount traffic for the fresh counters to climb past
	// their pre-remount values (defeating the recorder's naive reset
	// heuristic if the base accumulation were missing).
	for i := 0; i < 8; i++ {
		if _, err := tb.ReadFile("/pre"); err != nil {
			t.Fatal(err)
		}
		if err := tb.ColdCache(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Drain(); err != nil {
		t.Fatal(err)
	}
	tb.EmitSample()
	cum := st.fsCounters()["cache_misses"]
	if cum <= preMisses {
		t.Fatalf("cumulative misses (%d) did not grow past pre-remount (%d); test premise broken",
			cum, preMisses)
	}
	events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var streamed int64
	for _, e := range events {
		if e.Subsys == metrics.SubsysExt3 {
			streamed += e.Counters["cache_misses"]
		}
	}
	if streamed != cum {
		t.Fatalf("stream totals %d cache misses, want %d: deltas lost across ColdCache",
			streamed, cum)
	}
}

// TestClusterMetricsStream checks the cluster wiring: per-client tags on
// client sources, shared sources untagged, and deterministic replays.
func TestClusterMetricsStream(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		cl, err := NewCluster(ClusterConfig{
			Config: Config{
				Kind:         NFSv3,
				DeviceBlocks: 8192,
				Seed:         7,
				Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
			},
			Clients: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		drivers := make([]func() (bool, error), 2)
		for i, c := range cl.Clients {
			c, i := c, i
			n := 0
			drivers[i] = func() (bool, error) {
				if n >= 3 {
					return false, nil
				}
				n++
				return true, c.Mkdir(fmt.Sprintf("/c%d-%d", i, n))
			}
		}
		if err := cl.Run(drivers); err != nil {
			t.Fatal(err)
		}
		if err := cl.Drain(); err != nil {
			t.Fatal(err)
		}
		cl.EmitSample()
		return buf.Bytes()
	}
	a := run()
	if !bytes.Equal(a, run()) {
		t.Fatal("cluster streams differ between identical runs")
	}
	events, err := metrics.ReadEvents(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	clients := map[string]bool{}
	for _, e := range events {
		if e.Subsys == metrics.SubsysRPC {
			clients[e.Tags["client"]] = true
		}
		if e.Subsys == metrics.SubsysNet && e.Tags["client"] != "" {
			t.Fatalf("shared net source carries a client tag: %+v", e)
		}
	}
	if !clients["0"] || !clients["1"] {
		t.Fatalf("per-client RPC sources missing: %v", clients)
	}
}

// TestSlotTableBindsFlushPipeline: the NFS write-behind pool pipelines
// WRITE RPCs (each flush batch coalesces dirty pages into transfer-size
// calls issued back to back). On a LAN the client CPU staggers issuance
// faster than replies return, but at WAN RTT the wire dominates and a
// slot table narrower than the pipeline becomes the bottleneck —
// visible as rpc slot_waits in the telemetry stream — while the Linux
// default 16 entries comfortably hold it (so existing timings are
// untouched).
func TestSlotTableBindsFlushPipeline(t *testing.T) {
	run := func(slots int) int64 {
		tb, err := New(Config{Kind: NFSv3, DeviceBlocks: 16384, Seed: 1,
			RTT: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		tb.stack.(*nfsStack).rpc.SlotEntries = slots
		if err := tb.WriteFile("/big", make([]byte, 2<<20)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Drain(); err != nil {
			t.Fatal(err)
		}
		return tb.Counters().RPC.SlotWaits
	}
	if w := run(0); w != 0 { // 0: the default table
		t.Fatalf("default slot table queued %d calls under write-behind", w)
	}
	if w := run(2); w == 0 {
		t.Fatal("2-entry slot table never queued the write-behind pipeline")
	}
}
