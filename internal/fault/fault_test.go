package fault_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

func newCluster(t *testing.T, kind testbed.Kind, tr testbed.Transport, rec *metrics.Recorder) *testbed.Cluster {
	t.Helper()
	cl, err := testbed.NewCluster(testbed.ClusterConfig{
		Config: testbed.Config{
			Kind:         kind,
			DeviceBlocks: 16384,
			// 64 MB: a rebuild finishes inside the run
			Transport: tr,
			Seed:      7,
			Metrics:   rec,
		},
		Clients: 2,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return cl
}

// runOne executes one fault cell on a fresh cluster and flushes its
// counters into rec's stream.
func runOne(t *testing.T, kind testbed.Kind, tr testbed.Transport, f fault.Family, rec *metrics.Recorder) fault.Result {
	t.Helper()
	cl := newCluster(t, kind, tr, rec)
	plan, err := fault.NewPlan(f, fault.PlanConfig{Seed: 11})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	res, err := fault.Run(cl, fault.Config{Plan: plan, FileSize: 16 << 10})
	if err != nil {
		t.Fatalf("%v/%v/%s run: %v", kind, tr, f, err)
	}
	cl.EmitSample()
	return res
}

func TestPlanDeterministicAndOrdered(t *testing.T) {
	for _, f := range fault.Families {
		a, err := fault.NewPlan(f, fault.PlanConfig{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		b, _ := fault.NewPlan(f, fault.PlanConfig{Seed: 3})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed, different plans:\n%s\n%s", f, a, b)
		}
		c, _ := fault.NewPlan(f, fault.PlanConfig{Seed: 4})
		if reflect.DeepEqual(a.Events, c.Events) {
			t.Fatalf("%s: seeds 3 and 4 coincide: %s", f, a)
		}
		want := 2
		if f == fault.LinkFlap {
			want = 6 // 3 flaps by default
		}
		if len(a.Events) != want {
			t.Fatalf("%s: %d events, want %d", f, len(a.Events), want)
		}
		for i := 1; i < len(a.Events); i++ {
			if a.Events[i].At <= a.Events[i-1].At {
				t.Fatalf("%s: events out of order: %s", f, a)
			}
		}
		if a.Inject() <= 0 || a.Heal() <= a.Inject() {
			t.Fatalf("%s: degenerate window: %s", f, a)
		}
	}
	if _, err := fault.ParseFamily("quake"); err == nil {
		t.Fatal("bogus family accepted")
	}
}

// TestRecoveryAcrossFamiliesAndStacks runs every fault family against
// representative stack/transport pairs and checks the recovery story:
// no collapse, a positive time-to-recover anchored after the heal, and
// the family's signature side effects (rebuild traffic, lost ops, op
// failures during the outage).
func TestRecoveryAcrossFamiliesAndStacks(t *testing.T) {
	type pair struct {
		kind testbed.Kind
		tr   testbed.Transport
	}
	pairs := []pair{{testbed.NFSv3, testbed.TransportFluid}, {testbed.ISCSI, testbed.TransportFluid}}
	if !testing.Short() {
		pairs = append(pairs,
			pair{testbed.NFSv2, testbed.TransportFluid},
			pair{testbed.NFSv4, testbed.TransportFluid},
			pair{testbed.NFSv3, testbed.TransportTCP},
			pair{testbed.ISCSI, testbed.TransportTCP},
		)
	}
	for _, p := range pairs {
		for _, f := range fault.Families {
			res := runOne(t, p.kind, p.tr, f, nil)
			name := p.kind.String() + "/" + p.tr.String() + "/" + string(f)
			if res.Collapsed {
				t.Errorf("%s: collapsed", name)
				continue
			}
			if res.PreOps == 0 || res.PostOps == 0 {
				t.Errorf("%s: empty windows: pre=%d post=%d", name, res.PreOps, res.PostOps)
			}
			if res.TTR <= 0 || res.Recovered < res.Healed {
				t.Errorf("%s: recovery before repair: ttr=%v recovered=%v healed=%v",
					name, res.TTR, res.Recovered, res.Healed)
			}
			if res.PreRate <= 0 || res.PostRate <= 0 {
				t.Errorf("%s: rates: pre=%.1f post=%.1f", name, res.PreRate, res.PostRate)
			}
			switch f {
			case fault.ServerCrash:
				if res.FailedOps == 0 {
					t.Errorf("%s: no failed ops across a server crash", name)
				}
			case fault.DiskFail:
				if res.RebuildBlocks == 0 {
					t.Errorf("%s: rebuild moved no blocks", name)
				}
			case fault.LinkFlap:
				if res.Dropped == 0 {
					t.Errorf("%s: partition dropped no frames", name)
				}
			case fault.ClientCrash:
				if res.LostOps == 0 {
					t.Errorf("%s: crashed client lost no ops", name)
				}
			}
		}
	}
}

// faultStream runs every family for one stack/transport into a fresh
// metric stream and returns the raw bytes plus the results.
func faultStream(t *testing.T, kind testbed.Kind, tr testbed.Transport) ([]byte, []fault.Result) {
	t.Helper()
	var buf bytes.Buffer
	rec := metrics.NewRecorder(metrics.NewSink(&buf), metrics.Tags{"experiment": "fault-test"})
	var out []fault.Result
	for _, f := range fault.Families {
		out = append(out, runOne(t, kind, tr, f, rec))
	}
	return buf.Bytes(), out
}

// TestDeterministicTimelines reruns the full fault matrix and demands
// byte-identical metric streams and equal results: the acceptance bar
// for seeded fault injection.
func TestDeterministicTimelines(t *testing.T) {
	type pair struct {
		kind testbed.Kind
		tr   testbed.Transport
	}
	pairs := []pair{{testbed.NFSv3, testbed.TransportFluid}, {testbed.ISCSI, testbed.TransportTCP}}
	if !testing.Short() {
		pairs = append(pairs,
			pair{testbed.NFSv2, testbed.TransportFluid},
			pair{testbed.NFSv4, testbed.TransportFluid},
			pair{testbed.NFSv3, testbed.TransportTCP},
			pair{testbed.ISCSI, testbed.TransportFluid},
		)
	}
	for _, p := range pairs {
		b1, r1 := faultStream(t, p.kind, p.tr)
		b2, r2 := faultStream(t, p.kind, p.tr)
		name := p.kind.String() + "/" + p.tr.String()
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: metric streams differ between identical runs (%d vs %d bytes)",
				name, len(b1), len(b2))
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: results differ between identical runs:\n%+v\n%+v", name, r1, r2)
		}
	}
}

// TestVictimSelection pins client-crash faults to the chosen victim:
// the other clients keep completing ops through the whole window.
func TestVictimSelection(t *testing.T) {
	cl := newCluster(t, testbed.ISCSI, testbed.TransportFluid, nil)
	plan, err := fault.NewPlan(fault.ClientCrash, fault.PlanConfig{Seed: 5, Victim: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.Run(cl, fault.Config{Plan: plan, FileSize: 16 << 10})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Collapsed {
		t.Fatal("collapsed")
	}
	if res.LostOps == 0 {
		t.Fatal("victim lost no ops")
	}
	// The survivor's throughput shouldn't vanish while the victim is
	// down: degraded window ops keep flowing from client 0.
	if res.DegradedOps == 0 {
		t.Fatal("survivor completed nothing during the victim's outage")
	}
}

// TestOutageWindowSpansHeal checks the windowed-partition contract end
// to end: an RPC retry ladder that started inside the outage succeeds
// at its first attempt past the heal instant, so recovery lands right
// after the heal rather than a full backoff later.
func TestOutageWindowSpansHeal(t *testing.T) {
	cl := newCluster(t, testbed.NFSv3, testbed.TransportFluid, nil)
	plan, err := fault.NewPlan(fault.LinkFlap, fault.PlanConfig{
		Seed: 2, Flaps: 1, Outage: time.Second, Jitter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.Run(cl, fault.Config{Plan: plan, FileSize: 16 << 10})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Collapsed {
		t.Fatal("collapsed")
	}
	// The ladder doubles from ~1.1s: the op that stalled at the flap
	// start retries at ~1.1s after the outage began — within a couple
	// of RTO rungs of the heal, never a whole extra outage later.
	if res.TTR > plan.Heal()-plan.Inject()+4*time.Second {
		t.Fatalf("recovery overshot the heal: ttr=%v outage=%v", res.TTR, plan.Heal()-plan.Inject())
	}
}

// TestPlanString checks the compact timeline a plan renders as: its
// family, then every event as action@offset in schedule order. Without
// jitter a two-flap plan's offsets follow from the config alone: warm-up,
// outage, the fixed gap between flaps, outage.
func TestPlanString(t *testing.T) {
	if got := fault.Inject.String() + "/" + fault.Heal.String(); got != "inject/heal" {
		t.Fatalf("actions render as %q, want inject/heal", got)
	}
	plan, err := fault.NewPlan(fault.LinkFlap, fault.PlanConfig{
		Warmup: time.Second, Outage: 2 * time.Second, Flaps: 2, Jitter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.String(), "link-flap inject@1s heal@3s inject@3.5s heal@5.5s"; got != want {
		t.Fatalf("plan = %q, want %q", got, want)
	}
	if got, want := (fault.Plan{Family: fault.DiskFail}).String(), "disk-fail"; got != want {
		t.Fatalf("empty plan = %q, want %q", got, want)
	}
}
