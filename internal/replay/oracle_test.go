package replay

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testbed"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// The oracle cross-validation: internal/trace.SimulateDelegation is the
// Section 7 delegation simulator — a pure state machine over trace
// records. The full stack routes the same records through a delegating
// NFSv4 cluster: real RPCs, real caches, a real server. Because the
// client's delegation fast path is built to cost exactly zero messages
// on a leased path and exactly one otherwise (the lease riding it), the
// full-stack message reduction and recall counts must reproduce the
// simulator's. The only divergence channel is op reordering: the replay
// is open-loop, so an op delayed behind its predecessor can consult the
// lease table later than its trace timestamp. That channel is why the
// comparison carries a small tolerance (oracleTolerance) instead of
// demanding bit equality — and the golden file pins both sides so any
// drift in either implementation fails the suite.
const oracleTolerance = 0.005

// oracleCell is one profile's pair of measurements.
type oracleCell struct {
	name                         string
	ops                          int
	simReduction, simRecallRatio float64
	simRecalls                   int64
	fullReduction, fullRecall    float64
	fullRecalls, messages        int64
}

func (c oracleCell) String() string {
	return fmt.Sprintf(
		"%s: ops=%d sim_reduction=%.6f sim_recalls=%d full_reduction=%.6f full_recalls=%d messages=%d",
		c.name, c.ops, c.simReduction, c.simRecalls, c.fullReduction, c.fullRecalls, c.messages)
}

// runOracle folds a profile's trace exactly the way replay.Run will,
// feeds the folded records to the simulator, then replays them through
// a delegating NFSv4 cluster and reads the same two numbers off the
// real protocol counters.
func runOracle(t *testing.T, p trace.Profile, clients int, opt Options) oracleCell {
	t.Helper()
	recs := trace.Synthesize(p)
	if len(recs) == 0 {
		t.Fatalf("%s: empty trace", p.Name)
	}

	// The simulator sees the folded records in trace order — the same
	// per-client logs replay issues, flattened back to one timeline.
	folded := make([]trace.Record, 0, opt.MaxOps)
	for _, r := range recs {
		if opt.MaxOps > 0 && len(folded) >= opt.MaxOps {
			break
		}
		r.Client = ((r.Client % clients) + clients) % clients
		if opt.DirMod > 0 {
			r.Dir = ((r.Dir % opt.DirMod) + opt.DirMod) % opt.DirMod
		}
		folded = append(folded, r)
	}
	sim := trace.SimulateDelegation(folded)

	cl, err := testbed.NewCluster(testbed.ClusterConfig{
		Config: testbed.Config{
			Kind:         testbed.NFSv4,
			DeviceBlocks: 16384,
			Seed:         11,
		},
		Clients: clients,
		Sharing: &testbed.SharingConfig{Delegation: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cl, recs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != len(folded) {
		t.Fatalf("%s: replayed %d ops, folded %d", p.Name, len(res.Ops), len(folded))
	}

	cell := oracleCell{
		name:           p.Name,
		ops:            len(folded),
		simReduction:   sim.MessageReduction,
		simRecallRatio: sim.RecallRatio,
		simRecalls:     sim.Recalls,
		fullRecalls:    res.Recalls,
		messages:       res.Messages,
	}
	cell.fullReduction = 1 - float64(res.Messages)/float64(len(folded))
	cell.fullRecall = float64(res.Recalls) / float64(len(folded))
	return cell
}

// TestDelegationOracle is the tentpole acceptance test: the full stack
// reproduces the Section 7 simulator's message-reduction and recall
// numbers within oracleTolerance, and both sides match the committed
// golden (regenerate with go test ./internal/replay -run Oracle -update).
func TestDelegationOracle(t *testing.T) {
	profiles := []trace.Profile{trace.EECS(), trace.Campus()}
	if testing.Short() {
		profiles = profiles[:1]
	}
	var lines []string
	for _, p := range profiles {
		cell := runOracle(t, p, 4, Options{DirMod: 64, MaxOps: 1500})
		if cell.fullReduction <= 0 {
			t.Errorf("%s: full stack eliminated no messages (reduction=%.4f)", p.Name, cell.fullReduction)
		}
		if d := cell.fullReduction - cell.simReduction; d > oracleTolerance || d < -oracleTolerance {
			t.Errorf("%s: message reduction diverges from oracle: full=%.6f sim=%.6f (|Δ| > %g)",
				p.Name, cell.fullReduction, cell.simReduction, oracleTolerance)
		}
		if d := cell.fullRecall - cell.simRecallRatio; d > oracleTolerance || d < -oracleTolerance {
			t.Errorf("%s: recall ratio diverges from oracle: full=%.6f sim=%.6f (|Δ| > %g)",
				p.Name, cell.fullRecall, cell.simRecallRatio, oracleTolerance)
		}
		lines = append(lines, cell.String())
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "oracle.golden")
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full profile set; run without -short")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	// In short mode only the first profile ran; compare that prefix.
	wantStr := string(want)
	if testing.Short() {
		wantStr = strings.SplitAfter(wantStr, "\n")[0]
	}
	if got != wantStr {
		t.Errorf("oracle numbers drifted from golden:\n got: %s\nwant: %s\n(regenerate with -update if the change is intended)", got, wantStr)
	}
}

// TestDelegationReducesMessages pins the qualitative claim end to end:
// the same trace on the same cluster config costs strictly fewer server
// messages with delegation than without.
func TestDelegationReducesMessages(t *testing.T) {
	p := trace.EECS()
	recs := trace.Synthesize(p)
	opt := Options{DirMod: 64, MaxOps: 400}
	run := func(deleg bool) int64 {
		var sh *testbed.SharingConfig
		if deleg {
			sh = &testbed.SharingConfig{Delegation: true}
		}
		cl, err := testbed.NewCluster(testbed.ClusterConfig{
			Config: testbed.Config{
				Kind:         testbed.NFSv4,
				DeviceBlocks: 16384,
				Seed:         11,
			},
			Clients: 4,
			Sharing: sh,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cl, recs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Messages
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("delegation did not reduce messages: with=%d without=%d", with, without)
	}
}
