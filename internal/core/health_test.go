package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

// TestHealthCrashDetectionGolden is the PR's acceptance cell: the
// server-crash detection report on all four stacks must show a
// time-to-detect strictly inside (0, TTR), a post-recovery resolve,
// zero false positives — and the fault-free control cells must stay
// quiet. The rendered table is pinned under a golden (regenerate with
// go test ./internal/core -run HealthCrash -update).
func TestHealthCrashDetectionGolden(t *testing.T) {
	cfg := HealthConfig{
		Families:   []fault.Family{fault.ServerCrash},
		Transports: []testbed.Transport{testbed.TransportFluid},
		Seed:       5,
	}
	cells, err := RunHealth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(testbed.AllKinds)*2 { // a control + a crash cell per stack
		t.Fatalf("%d cells, want %d", len(cells), len(testbed.AllKinds)*2)
	}
	for _, c := range cells {
		name := string(c.Family) + "/" + c.Label()
		if c.Scrapes == 0 || c.GaugeEvents == 0 {
			t.Errorf("%s: monitor idle (%d scrapes, %d gauge events)", name, c.Scrapes, c.GaugeEvents)
		}
		if c.Control {
			if c.Fires != 0 || c.FalsePositives != 0 {
				t.Errorf("%s: control cell alerted (%d fires, %d fp)", name, c.Fires, c.FalsePositives)
			}
			continue
		}
		if c.Collapsed {
			t.Errorf("%s: collapsed", name)
			continue
		}
		if !c.Detected || c.TTD <= 0 || c.TTD >= c.TTR {
			t.Errorf("%s: TTD %v not inside (0, TTR %v)", name, c.TTD, c.TTR)
		}
		if !c.Resolved {
			t.Errorf("%s: alert never resolved", name)
		}
		if c.FalsePositives != 0 || c.FalseNegatives != 0 {
			t.Errorf("%s: fp=%d fn=%d", name, c.FalsePositives, c.FalseNegatives)
		}
	}

	var buf bytes.Buffer
	RenderHealth(&buf, cells)
	path := filepath.Join("testdata", "health_crash.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("detection table drifted from golden:\n--- got ---\n%s--- want ---\n%s"+
			"(regenerate with -update if the change is intended)", buf.Bytes(), want)
	}
}

// TestHealthSweepDeterministicStream reruns health cells on every stack
// under both wire models and demands byte-identical gauge streams and
// alert timelines — the property that makes a detection-latency number
// a regression signal instead of noise.
func TestHealthSweepDeterministicStream(t *testing.T) {
	stacks := testbed.AllKinds
	transports := []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP}
	if testing.Short() {
		stacks = []Stack{NFSv3, ISCSI}
		transports = []testbed.Transport{testbed.TransportFluid}
	}
	for _, stack := range stacks {
		for _, tr := range transports {
			stack, tr := stack, tr
			t.Run(fmt.Sprintf("%s-%s", stack.Tag(), tr), func(t *testing.T) {
				run := func() []byte {
					var buf bytes.Buffer
					cfg := HealthConfig{
						Families:   []fault.Family{fault.ServerCrash},
						Stacks:     []Stack{stack},
						Transports: []testbed.Transport{tr},
						Seed:       9,
						Metrics:    metrics.NewRecorder(metrics.NewSink(&buf), metrics.Tags{"cmd": "health"}),
					}
					if _, err := RunHealth(cfg); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}
				a, b := run(), run()
				if !bytes.Equal(a, b) {
					t.Fatalf("health telemetry not deterministic: %d vs %d bytes", len(a), len(b))
				}
				for _, needle := range []string{`"experiment":"health"`, `"subsys":"gauge"`,
					`"subsys":"alert"`, `"family":"control"`} {
					if !bytes.Contains(a, []byte(needle)) {
						t.Errorf("stream missing %s", needle)
					}
				}
			})
		}
	}
}

// TestHealthSweepAllFamilies (full mode only) sweeps every family on
// two representative stacks: disk failure must be caught by the
// degraded-array saturation objective (availability alone cannot see
// it), the link flap by the availability stall rule, and the client
// crash is the honest false negative — the witness client keeps the
// service-level SLOs green while the victim idles.
func TestHealthSweepAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("full family sweep in -short mode")
	}
	cfg := HealthConfig{
		Stacks:     []Stack{NFSv3, ISCSI},
		Transports: []testbed.Transport{testbed.TransportFluid},
		Seed:       5,
	}
	cells, err := RunHealth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byFam := map[fault.Family][]HealthCell{}
	for _, c := range cells {
		byFam[c.Family] = append(byFam[c.Family], c)
	}
	for _, f := range []fault.Family{fault.ServerCrash, fault.DiskFail, fault.LinkFlap} {
		for _, c := range byFam[f] {
			if !c.Detected || c.FalsePositives != 0 {
				t.Errorf("%s/%s: detected=%v fp=%d", f, c.Label(), c.Detected, c.FalsePositives)
			}
			if c.Detected && c.TTD >= c.TTR {
				t.Errorf("%s/%s: TTD %v did not beat TTR %v", f, c.Label(), c.TTD, c.TTR)
			}
		}
	}
	for _, c := range byFam[fault.ClientCrash] {
		if c.FalsePositives != 0 {
			t.Errorf("client-crash/%s: %d false positives", c.Label(), c.FalsePositives)
		}
	}
}
