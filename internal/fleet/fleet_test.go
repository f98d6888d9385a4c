package fleet

import (
	"math"
	"testing"
	"time"
)

// TestSolveSingleClientExact verifies the AMVA fixed point is exact at
// population 1: no queueing, X = 1/(Z + sum D).
func TestSolveSingleClientExact(t *testing.T) {
	d := Demand{ServerCPU: 2 * time.Millisecond, Disk: 3 * time.Millisecond, Think: 5 * time.Millisecond}
	op, err := Solve(0, []Cohort{{Clients: 1, Demand: d}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 0.010
	if math.Abs(op.X-want) > 1e-9*want {
		t.Fatalf("X = %g, want %g", op.X, want)
	}
	if op.CycleTime != 10*time.Millisecond {
		t.Fatalf("cycle = %v, want 10ms", op.CycleTime)
	}
	if got, want := op.Util[StationDisk], op.X*0.003; math.Abs(got-want) > 1e-9 {
		t.Fatalf("disk util = %g, want %g", got, want)
	}
	if op.BackgroundX != op.X {
		t.Fatalf("background X = %g, want all of %g", op.BackgroundX, op.X)
	}
}

// TestSolveBottleneckAsymptote verifies throughput saturates at 1/Dmax as
// the population grows, and never exceeds either asymptotic bound.
func TestSolveBottleneckAsymptote(t *testing.T) {
	d := Demand{ServerCPU: 1 * time.Millisecond, Disk: 4 * time.Millisecond, Think: 20 * time.Millisecond}
	dmax := 0.004
	sumD := 0.005
	z := 0.020
	var prev float64
	for _, n := range []int{1, 4, 16, 256, 10000} {
		op, err := Solve(0, []Cohort{{Clients: n, Demand: d}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if op.X < prev {
			t.Fatalf("X not monotone at n=%d: %g < %g", n, op.X, prev)
		}
		prev = op.X
		if bound := 1 / dmax; op.X > bound+1e-9 {
			t.Fatalf("n=%d X = %g exceeds bottleneck bound %g", n, op.X, bound)
		}
		if bound := float64(n) / (z + sumD); op.X > bound+1e-9 {
			t.Fatalf("n=%d X = %g exceeds light-load bound %g", n, op.X, bound)
		}
	}
	if want := 1 / dmax; math.Abs(prev-want) > 0.01*want {
		t.Fatalf("10k-client X = %g, want within 1%% of %g", prev, want)
	}
}

// TestSolveForegroundShare verifies foreground clients join the population
// but not the background share: utilizations split by client counts.
func TestSolveForegroundShare(t *testing.T) {
	d := Demand{ServerCPU: 2 * time.Millisecond, Think: 10 * time.Millisecond}
	op, err := Solve(4, []Cohort{{Clients: 12, Demand: d}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op.Population != 16 || op.Background != 12 {
		t.Fatalf("population/background = %d/%d", op.Population, op.Background)
	}
	if want := op.X * 12 / 16; math.Abs(op.BackgroundX-want) > 1e-9 {
		t.Fatalf("background X = %g, want %g", op.BackgroundX, want)
	}
	if want := op.Util[StationCPU] * 12 / 16; math.Abs(op.BackgroundUtil[StationCPU]-want) > 1e-9 {
		t.Fatalf("background cpu util = %g, want %g", op.BackgroundUtil[StationCPU], want)
	}
}

// TestSolveCohortWeighting verifies two cohorts solve identically to one
// merged cohort carrying their client-weighted demand.
func TestSolveCohortWeighting(t *testing.T) {
	a := Demand{ServerCPU: 1 * time.Millisecond, Think: 8 * time.Millisecond, MsgsPerOp: 2}
	b := Demand{ServerCPU: 4 * time.Millisecond, Think: 20 * time.Millisecond, MsgsPerOp: 6}
	split, err := Solve(0, []Cohort{{Clients: 3, Demand: a}, {Clients: 1, Demand: b}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	merged := Demand{
		ServerCPU: time.Duration((3*float64(a.ServerCPU) + float64(b.ServerCPU)) / 4),
		Think:     time.Duration((3*float64(a.Think) + float64(b.Think)) / 4),
		MsgsPerOp: (3*a.MsgsPerOp + b.MsgsPerOp) / 4,
	}
	one, err := Solve(0, []Cohort{{Clients: 4, Demand: merged}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(split.X-one.X) > 1e-9*one.X {
		t.Fatalf("split X = %g, merged X = %g", split.X, one.X)
	}
	if split.Demand.MsgsPerOp != 3 {
		t.Fatalf("weighted msgs/op = %g, want 3", split.Demand.MsgsPerOp)
	}
}

// TestSolveSharedLinkStation verifies the shared pipe contributes two
// directional stations whose demand is bytes/op at pipe rate, and that it
// can be the bottleneck.
func TestSolveSharedLinkStation(t *testing.T) {
	// 1 MB/s pipe, 8 KB down per op -> 8 ms down-station demand dominating
	// the 1 ms CPU demand.
	d := Demand{ServerCPU: 1 * time.Millisecond, DownBytes: 8192, Think: 10 * time.Millisecond}
	op, err := Solve(0, []Cohort{{Clients: 1000, Demand: d}}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dmax := 8192.0 / float64(1<<20)
	if want := 1 / dmax; math.Abs(op.X-want) > 0.01*want {
		t.Fatalf("link-bound X = %g, want ~%g", op.X, want)
	}
	if op.Util[StationDown] < 0.9 {
		t.Fatalf("down-link util = %g, want near saturation", op.Util[StationDown])
	}
	// Without a shared pipe the same bytes cost nothing.
	op2, err := Solve(0, []Cohort{{Clients: 1000, Demand: d}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op2.X <= op.X {
		t.Fatalf("private-wire X = %g, want above link-bound %g", op2.X, op.X)
	}
	if op2.Util[StationDown] != 0 {
		t.Fatalf("private-wire down util = %g, want 0", op2.Util[StationDown])
	}
}

// TestSolveUtilizationCapped verifies the injected utilizations stay
// strictly below 1 even for absurd populations.
func TestSolveUtilizationCapped(t *testing.T) {
	d := Demand{Disk: 5 * time.Millisecond, Think: time.Millisecond}
	op, err := Solve(0, []Cohort{{Clients: 100000, Demand: d}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range op.Util {
		if u >= 1 {
			t.Fatalf("station %d util = %g, want < 1", i, u)
		}
	}
}

// TestSolveBackgroundUtilInRange drives a cohort that saturates every
// station, shared pipe included, with and without foreground clients: each
// injected background utilization stays inside [0, 1), so the cluster's
// hybrid path never meets the errors of sim.Resource.SetBackground and
// simnet.Network.SetBackground.
func TestSolveBackgroundUtilInRange(t *testing.T) {
	d := Demand{ServerCPU: 3 * time.Millisecond, Disk: 3 * time.Millisecond, UpBytes: 3 << 10, DownBytes: 3 << 10}
	for _, fg := range []int{0, 1, 64} {
		for _, clients := range []int{1, 1000, 1000000} {
			op, err := Solve(fg, []Cohort{{Clients: clients, Demand: d}}, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range op.BackgroundUtil {
				if !(u >= 0 && u < 1) {
					t.Errorf("%d foreground, %d background: station %d background util %g outside [0, 1)", fg, clients, i, u)
				}
			}
		}
	}
}

// TestSolveErrors verifies input validation.
func TestSolveErrors(t *testing.T) {
	good := Demand{ServerCPU: time.Millisecond, Think: time.Millisecond}
	if _, err := Solve(-1, []Cohort{{Clients: 1, Demand: good}}, 0); err == nil {
		t.Error("negative foreground accepted")
	}
	if _, err := Solve(0, nil, 0); err == nil {
		t.Error("empty cohorts accepted")
	}
	if _, err := Solve(0, []Cohort{{Clients: 0, Demand: good}}, 0); err == nil {
		t.Error("zero-client cohort accepted")
	}
	if _, err := Solve(0, []Cohort{{Clients: 1, Demand: Demand{ServerCPU: -1}}}, 0); err == nil {
		t.Error("negative demand accepted")
	}
	if _, err := Solve(0, []Cohort{{Clients: 1}}, 0); err == nil {
		t.Error("zero demand accepted")
	}
}

// TestCalibrate verifies per-op division, shared-wire accounting and the
// think-time residual.
func TestCalibrate(t *testing.T) {
	m := Measured{
		Elapsed:       10 * time.Second,
		Ops:           1000,
		ServerCPUBusy: 2 * time.Second,
		DiskBusy:      3 * time.Second,
		UpBytes:       1 << 20,
		DownBytes:     8 << 20,
		Messages:      4000,
		DataBytes:     64 << 20,
	}
	d, err := Calibrate(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.ServerCPU != 2*time.Millisecond || d.Disk != 3*time.Millisecond {
		t.Fatalf("demands = %v/%v", d.ServerCPU, d.Disk)
	}
	if d.UpBytes != 0 || d.DownBytes != 0 {
		t.Fatalf("private-wire bytes = %g/%g, want 0", d.UpBytes, d.DownBytes)
	}
	// Cycle 10 ms minus 5 ms of shared demand.
	if d.Think != 5*time.Millisecond {
		t.Fatalf("think = %v, want 5ms", d.Think)
	}
	if d.MsgsPerOp != 4 {
		t.Fatalf("msgs/op = %g, want 4", d.MsgsPerOp)
	}
	if d.DataBytesPerOp != float64(64<<20)/1000 {
		t.Fatalf("data/op = %g", d.DataBytesPerOp)
	}

	// Shared pipe: wire time moves out of think.
	// (1+8) MB over 1000 ops at 1 MB/s = 9 ms/op of wire time; with only
	// 10 ms cycles the residual clamps to 0.
	ds, err := Calibrate(m, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ds.UpBytes != float64(1<<20)/1000 || ds.DownBytes != float64(8<<20)/1000 {
		t.Fatalf("shared bytes/op = %g/%g", ds.UpBytes, ds.DownBytes)
	}
	if ds.Think != 0 {
		t.Fatalf("think = %v, want clamp to 0", ds.Think)
	}
}

// TestCalibrateErrors verifies degenerate windows are rejected.
func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(Measured{Elapsed: time.Second}, 0); err == nil {
		t.Error("zero-op window accepted")
	}
	if _, err := Calibrate(Measured{Ops: 10}, 0); err == nil {
		t.Error("zero-elapsed window accepted")
	}
}
