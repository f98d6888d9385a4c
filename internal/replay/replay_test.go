package replay

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/testbed"
	"repro/internal/trace"
)

// testTrace synthesizes a small bursty trace sized for the unit suite.
func testTrace(t *testing.T) []trace.Record {
	p := trace.Profile{
		Name:            "test",
		Clients:         6,
		Directories:     256,
		Duration:        2 * time.Second,
		OpsPerSec:       300,
		WriteFraction:   0.3,
		HomeDirFraction: 0.7,
		SharedReadBias:  0.8,
		Seed:            7,
	}
	if testing.Short() {
		p.Duration = 500 * time.Millisecond
	}
	recs := trace.Synthesize(p)
	if len(recs) == 0 {
		t.Fatal("empty test trace")
	}
	return recs
}

// newTestCluster builds a small replay cluster.
func newTestCluster(t *testing.T, kind testbed.Kind, tr testbed.Transport) *testbed.Cluster {
	t.Helper()
	cl, err := testbed.NewCluster(testbed.ClusterConfig{
		Config: testbed.Config{
			Kind:         kind,
			DeviceBlocks: 16384,
			Seed:         11,
			Transport:    tr,
		},
		Clients: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// fingerprint renders a Result byte-for-byte comparable.
func fingerprint(res *Result) string {
	out := fmt.Sprintf("start=%v elapsed=%v p50=%v p90=%v p99=%v mean=%v ops/s=%.6f\n",
		res.Start, res.Elapsed, res.P50, res.P90, res.P99, res.Mean, res.OpsPerSec)
	for _, c := range res.PerClient {
		out += fmt.Sprintf("client %d: %+v\n", c.Client, c)
	}
	for _, op := range res.Ops {
		out += fmt.Sprintf("%+v\n", op)
	}
	return out
}

// TestReplayDeterministic replays the identical trace twice through fresh
// but identically configured clusters on all four stacks and requires
// byte-identical per-op latency sequences (the PR 1 cluster-determinism
// suite extended to the replay path).
func TestReplayDeterministic(t *testing.T) {
	recs := testTrace(t)
	opt := Options{DirMod: 32, MaxOps: 200}
	if testing.Short() {
		opt.MaxOps = 80
	}
	for _, kind := range testbed.AllKinds {
		t.Run(kind.String(), func(t *testing.T) {
			run := func() string {
				cl := newTestCluster(t, kind, testbed.TransportFluid)
				res, err := Run(cl, recs, opt)
				if err != nil {
					t.Fatal(err)
				}
				return fingerprint(res) + fmt.Sprintf("%+v", cl.Snap())
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("nondeterministic replay:\n%s\n---\n%s", a, b)
			}
		})
	}
}

// TestReplayDeterministicTCP extends the determinism check to the
// virtual-time TCP transport on the paper's headline pair.
func TestReplayDeterministicTCP(t *testing.T) {
	recs := testTrace(t)
	opt := Options{DirMod: 32, MaxOps: 120}
	if testing.Short() {
		opt.MaxOps = 60
	}
	for _, kind := range []testbed.Kind{testbed.NFSv3, testbed.ISCSI} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func() string {
				cl := newTestCluster(t, kind, testbed.TransportTCP)
				res, err := Run(cl, recs, opt)
				if err != nil {
					t.Fatal(err)
				}
				return fingerprint(res)
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("nondeterministic TCP replay:\n%s\n---\n%s", a, b)
			}
		})
	}
}

// checkPacing asserts the open-loop contract over a Result: no op issues
// before its trace timestamp, per-client completion order matches log
// order, and a queued op issues exactly when its predecessor completes
// (queueing, never load stretching).
func checkPacing(t *testing.T, res *Result, start time.Duration) {
	t.Helper()
	prevDone := map[int]time.Duration{}
	prevIndex := map[int]int{}
	for _, op := range res.Ops {
		if op.Start < op.At {
			t.Fatalf("client %d op %d issued at %v before its timestamp %v",
				op.Client, op.Index, op.Start, op.At)
		}
		if op.Done < op.Start {
			t.Fatalf("client %d op %d completed at %v before issue %v",
				op.Client, op.Index, op.Done, op.Start)
		}
		last, seen := prevIndex[op.Client]
		if seen && op.Index != last+1 {
			t.Fatalf("client %d completion order broke log order: op %d after op %d",
				op.Client, op.Index, last)
		}
		prevIndex[op.Client] = op.Index
		floor := start
		if seen {
			floor = prevDone[op.Client]
		}
		want := op.At
		if floor > want {
			want = floor
		}
		if op.Start != want {
			t.Fatalf("client %d op %d issued at %v, want max(at=%v, prev done=%v)",
				op.Client, op.Index, op.Start, op.At, floor)
		}
		prevDone[op.Client] = op.Done
	}
}

// TestReplayOpenLoopPacing replays a synthesized trace on every stack and
// property-checks the pacing contract on every replayed op.
func TestReplayOpenLoopPacing(t *testing.T) {
	recs := testTrace(t)
	opt := Options{DirMod: 32, MaxOps: 150}
	if testing.Short() {
		opt.MaxOps = 60
	}
	for _, kind := range testbed.AllKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cl := newTestCluster(t, kind, testbed.TransportFluid)
			res, err := Run(cl, recs, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := opt.MaxOps
			if n := len(recs); n < want {
				want = n
			}
			if len(res.Ops) != want {
				t.Fatalf("replayed %d ops, want %d", len(res.Ops), want)
			}
			checkPacing(t, res, res.Start)
		})
	}
}

// TestReplayBurstQueues hand-builds a trace whose ops all share one
// timestamp: every op after the first must queue (issue exactly at its
// predecessor's completion) and queue delay must grow monotonically.
func TestReplayBurstQueues(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 12; i++ {
		recs = append(recs, trace.Record{At: time.Millisecond, Client: 0, Dir: i % 3, Kind: trace.OpWrite})
	}
	cl := newTestCluster(t, testbed.NFSv3, testbed.TransportFluid)
	res, err := Run(cl, recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPacing(t, res, res.Start)
	var prev time.Duration
	for i, op := range res.Ops {
		if i > 0 {
			if op.queueDelay() <= prev {
				t.Fatalf("op %d queue delay %v did not grow past %v", i, op.queueDelay(), prev)
			}
			if op.Start != res.Ops[i-1].Done {
				t.Fatalf("op %d queued start %v != predecessor done %v", i, op.Start, res.Ops[i-1].Done)
			}
		}
		prev = op.queueDelay()
	}
}

// TestReplaySparseWaits verifies the other half of open-loop pacing: with
// generous inter-arrival gaps the client idles and every op issues exactly
// at its trace timestamp.
func TestReplaySparseWaits(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, trace.Record{
			At: time.Duration(i+1) * 500 * time.Millisecond, Client: i % 2, Dir: i % 4, Kind: trace.OpRead,
		})
	}
	cl := newTestCluster(t, testbed.ISCSI, testbed.TransportFluid)
	res, err := Run(cl, recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPacing(t, res, res.Start)
	for _, op := range res.Ops {
		if op.Start != op.At {
			t.Fatalf("sparse op %+v did not issue at its timestamp", op)
		}
	}
}

// TestReplayRejectsOutOfOrderLog verifies the engine refuses a per-client
// log whose timestamps regress (the JSONL decoder rejects these too; the
// engine guards direct callers).
func TestReplayRejectsOutOfOrderLog(t *testing.T) {
	recs := []trace.Record{
		{At: 2 * time.Millisecond, Client: 0, Dir: 0, Kind: trace.OpRead},
		{At: time.Millisecond, Client: 0, Dir: 1, Kind: trace.OpRead},
	}
	cl := newTestCluster(t, testbed.NFSv3, testbed.TransportFluid)
	if _, err := Run(cl, recs, Options{}); err == nil {
		t.Fatal("accepted out-of-order per-client log")
	}
}
