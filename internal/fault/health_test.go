package fault_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

// healthRun executes one fault cell, optionally with a health monitor
// attached, and returns the raw metric stream plus the monitor.
func healthRun(t *testing.T, f fault.Family, withHealth, dryRun bool) ([]byte, *health.Monitor, fault.Result) {
	t.Helper()
	var buf bytes.Buffer
	var mon *health.Monitor
	if withHealth {
		var err error
		if mon, err = health.New(health.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := testbed.NewCluster(testbed.ClusterConfig{
		Config: testbed.Config{
			Kind:         testbed.NFSv3,
			DeviceBlocks: 16384,
			Seed:         7,
			Metrics:      metrics.NewRecorder(metrics.NewSink(&buf), nil),
		},
		Clients: 2,
		Health:  mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NewPlan(f, fault.PlanConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.Run(cl, fault.Config{Plan: plan, FileSize: 16 << 10,
		Cooldown: 4 * time.Second, DryRun: dryRun})
	if err != nil {
		t.Fatal(err)
	}
	cl.EmitSample()
	return buf.Bytes(), mon, res
}

// stripHealth removes the monitor's own events (subsys gauge/alert)
// from a JSONL stream, returning what the rest of the system emitted.
func stripHealth(t *testing.T, stream []byte) []byte {
	t.Helper()
	events, err := metrics.ReadEvents(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("stream does not validate: %v", err)
	}
	var out bytes.Buffer
	for _, e := range events {
		if e.Subsys == metrics.SubsysGauge || e.Subsys == metrics.SubsysAlert {
			continue
		}
		line, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out.Write(append(line, '\n'))
	}
	return out.Bytes()
}

// TestHealthMonitorIsPassive is the "nil health = inert" acceptance
// property from both directions: (a) a run with no monitor emits no
// gauge or alert events at all, and (b) attaching a monitor changes
// nothing about the rest of the stream — the scraper reads simulator
// state, it never perturbs op timing, so stripping its own events must
// recover the health-free stream byte for byte.
func TestHealthMonitorIsPassive(t *testing.T) {
	bare, _, bareRes := healthRun(t, fault.ServerCrash, false, false)
	if len(bare) == 0 {
		t.Fatal("empty baseline stream")
	}
	for _, e := range mustEvents(t, bare) {
		if e.Subsys == metrics.SubsysGauge || e.Subsys == metrics.SubsysAlert {
			t.Fatalf("health-free run emitted a health event: %+v", e)
		}
	}
	monitored, mon, monRes := healthRun(t, fault.ServerCrash, true, false)
	if mon.Scrapes() == 0 || mon.GaugeEvents() == 0 {
		t.Fatal("monitor never scraped")
	}
	if bareRes.Inject != monRes.Inject || bareRes.Recovered != monRes.Recovered ||
		bareRes.TTR != monRes.TTR || bareRes.FailedOps != monRes.FailedOps ||
		bareRes.DegradedOps != monRes.DegradedOps || bareRes.PostOps != monRes.PostOps {
		t.Fatalf("monitor changed the fault result:\nbare %+v\nmon  %+v", bareRes, monRes)
	}
	if got := stripHealth(t, monitored); !bytes.Equal(got, bare) {
		t.Fatal("stripping gauge/alert events did not recover the health-free stream: the monitor perturbed the run")
	}
}

// TestHealthDetectsServerCrash pins the detection story on the fault
// runner's own timeline: availability fires after the inject, resolves
// after the recovery, and TTD beats TTR.
func TestHealthDetectsServerCrash(t *testing.T) {
	_, mon, res := healthRun(t, fault.ServerCrash, true, false)
	sc := health.ScoreTimeline(mon.Transitions(), res.Inject, res.Recovered)
	if !sc.Detected || sc.FalsePositives != 0 || sc.FalseNegatives != 0 {
		t.Fatalf("detection: %+v (transitions %+v)", sc, mon.Transitions())
	}
	if sc.TTD <= 0 || sc.TTD >= res.TTR {
		t.Fatalf("TTD %v not inside (0, TTR %v)", sc.TTD, res.TTR)
	}
	if !sc.Resolved {
		t.Fatalf("alert never resolved: %+v", mon.Transitions())
	}
}

// TestHealthDryRunIsQuiet: the control cell replays the plan timeline
// without firing events, so clients run fault-free and any alert is a
// false positive by construction — of which there must be none.
func TestHealthDryRunIsQuiet(t *testing.T) {
	_, mon, res := healthRun(t, fault.ServerCrash, true, true)
	if res.FailedOps != 0 {
		t.Fatalf("dry run failed %d ops", res.FailedOps)
	}
	sc := health.ScoreControl(mon.Transitions())
	if sc.Fires != 0 || sc.FalsePositives != 0 {
		t.Fatalf("control cell alerted: %+v (transitions %+v)", sc, mon.Transitions())
	}
}

func mustEvents(t *testing.T, stream []byte) []metrics.Event {
	t.Helper()
	events, err := metrics.ReadEvents(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	return events
}
