package testbed

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
)

// gaugeRun drives a small cluster workload with a health monitor
// attached and returns the stream plus the monitor.
func gaugeRun(t *testing.T, kind Kind, tr Transport) ([]byte, *health.Monitor) {
	t.Helper()
	var buf bytes.Buffer
	mon, err := health.New(health.Config{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{
		Config: Config{
			Kind:         kind,
			DeviceBlocks: 8192,
			Seed:         7,
			Transport:    tr,
			Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
		},
		Clients: 2,
		Health:  mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	drivers := make([]func() (bool, error), len(cl.Clients))
	for i, c := range cl.Clients {
		c, i := c, i
		n := 0
		drivers[i] = func() (bool, error) {
			if n >= 4 {
				return false, nil
			}
			n++
			return true, c.WriteFile(fmt.Sprintf("/c%d-%d", i, n), make([]byte, 32<<10))
		}
	}
	if err := cl.Run(drivers); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	cl.EmitSample()
	return buf.Bytes(), mon
}

// TestClusterGaugeStream checks the scraper wiring: deterministic
// byte-identical gauge streams, the station vocabulary present for the
// stack, shared stations untagged, per-client stations client-tagged,
// and every utilization inside [0, 1].
func TestClusterGaugeStream(t *testing.T) {
	for _, kind := range AllKinds {
		for _, tr := range []Transport{TransportFluid, TransportTCP} {
			t.Run(fmt.Sprintf("%s-%s", kind.Tag(), tr), func(t *testing.T) {
				a, mon := gaugeRun(t, kind, tr)
				b, _ := gaugeRun(t, kind, tr)
				if !bytes.Equal(a, b) {
					t.Fatal("gauge streams differ between identical runs")
				}
				if mon.Scrapes() == 0 || mon.GaugeEvents() == 0 {
					t.Fatalf("monitor idle: %d scrapes, %d gauge events",
						mon.Scrapes(), mon.GaugeEvents())
				}
				events, err := metrics.ReadEvents(bytes.NewReader(a))
				if err != nil {
					t.Fatal(err)
				}
				stations := map[string]bool{}
				for _, e := range events {
					if e.Subsys != metrics.SubsysGauge {
						continue
					}
					st := e.Tags["station"]
					stations[st] = true
					switch st {
					case "cpu.server", "disk", "net.shared", "lock":
						if e.Tags["client"] != "" {
							t.Fatalf("shared station %s carries a client tag: %+v", st, e)
						}
					case "cpu.client", "rpc", "tcp":
						if e.Tags["client"] == "" {
							t.Fatalf("per-client station %s missing client tag: %+v", st, e)
						}
					default:
						t.Fatalf("unknown station %q: %+v", st, e)
					}
					for k, v := range e.Values {
						if k == "util" && (v < 0 || v > 1) {
							t.Fatalf("station %s util %g out of [0, 1]", st, v)
						}
					}
				}
				want := []string{"cpu.server", "disk", "cpu.client"}
				if kind != ISCSI {
					want = append(want, "rpc")
				}
				if tr == TransportTCP {
					want = append(want, "tcp")
				}
				for _, st := range want {
					if !stations[st] {
						t.Errorf("no %s gauges in stream (have %v)", st, stations)
					}
				}
			})
		}
	}
}

// TestGaugesSurviveColdCache mirrors the counter remount-continuity
// tests for the gauge layer: a cold-cache remount tears down and
// rebuilds every protocol client, and the monitor must (a) flush a
// pre-rebuild gauge sample at the quiesced instant and (b) keep the
// protocol stations reporting afterwards, because its sources read the
// stack's live instances at scrape time instead of caching pointers to
// retired ones.
func TestGaugesSurviveColdCache(t *testing.T) {
	for _, kind := range []Kind{NFSv3, ISCSI} {
		t.Run(kind.Tag(), func(t *testing.T) {
			var buf bytes.Buffer
			mon, err := health.New(health.Config{Interval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := NewCluster(ClusterConfig{
				Config: Config{
					Kind:         kind,
					DeviceBlocks: 8192,
					Seed:         7,
					Transport:    TransportTCP,
					Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
				},
				Clients: 1,
				Health:  mon,
			})
			if err != nil {
				t.Fatal(err)
			}
			write := func(path string) {
				drv := []func() (bool, error){func() (bool, error) {
					return false, cl.Clients[0].WriteFile(path, make([]byte, 32<<10))
				}}
				if err := cl.Run(drv); err != nil {
					t.Fatal(err)
				}
			}
			write("/pre")
			if err := cl.Drain(); err != nil {
				t.Fatal(err)
			}
			preEvents := mon.GaugeEvents()
			remountAt := cl.Horizon()
			if err := cl.ColdCache(); err != nil {
				t.Fatal(err)
			}
			if mon.GaugeEvents() <= preEvents {
				t.Fatal("ColdCache did not flush a pre-rebuild gauge sample")
			}
			write("/post")
			if err := cl.Drain(); err != nil {
				t.Fatal(err)
			}
			cl.EmitSample()

			events, err := metrics.ReadEvents(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			post := map[string]bool{}
			for _, e := range events {
				if e.Subsys != metrics.SubsysGauge {
					continue
				}
				for k, v := range e.Values {
					if k == "util" && (v < 0 || v > 1) {
						t.Fatalf("util %g out of [0, 1] around remount: %+v", v, e)
					}
				}
				if time.Duration(e.T) > remountAt {
					post[e.Tags["station"]] = true
				}
			}
			// The protocol stations must come back on the rebuilt
			// instances (tcp on the fresh conn/session, rpc on the fresh
			// client) — a monitor holding stale pointers would go silent.
			want := []string{"cpu.server", "tcp"}
			if kind != ISCSI {
				want = append(want, "rpc")
			}
			for _, st := range want {
				if !post[st] {
					t.Errorf("station %s silent after remount (post stations %v)", st, post)
				}
			}
		})
	}
}
