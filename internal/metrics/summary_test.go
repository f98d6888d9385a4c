package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// loadStream reads the fixed testdata stream.
func loadStream(t *testing.T) []Event {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "stream.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// checkGolden compares got against the named golden file (-update rewrites).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestSummarizeGolden(t *testing.T) {
	events := loadStream(t)
	var buf bytes.Buffer
	Summarize(events, []string{"stack"}).Render(&buf)
	checkGolden(t, "summary.golden", buf.Bytes())
}

func TestWindowsGolden(t *testing.T) {
	events := loadStream(t)
	var buf bytes.Buffer
	width := time.Second
	RenderWindows(&buf, Windows(events, width, []string{"stack"}), width)
	checkGolden(t, "windows.golden", buf.Bytes())
}

// loadGauges reads the health-layer fixture: gauge/alert points mixed
// with counter samples.
func loadGauges(t *testing.T) []Event {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "gauges.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestGaugeSummaryGolden pins the gauge rendering: subsys=gauge groups
// report min/mean/max levels (never percentile or rate lines), while
// alert points keep the percentile rendering.
func TestGaugeSummaryGolden(t *testing.T) {
	events := loadGauges(t)
	var buf bytes.Buffer
	Summarize(events, []string{"station", "slo"}).Render(&buf)
	checkGolden(t, "gauges_summary.golden", buf.Bytes())
}

// TestGaugeWindowsGolden pins the windowed gauge view: per-window
// min/mean/max levels alongside counter sums, never rate-converted.
func TestGaugeWindowsGolden(t *testing.T) {
	events := loadGauges(t)
	var buf bytes.Buffer
	width := time.Second
	RenderWindows(&buf, Windows(events, width, []string{"station"}), width)
	checkGolden(t, "gauges_windows.golden", buf.Bytes())
}

// TestGaugeWindowsFold checks the GaugeStat arithmetic through the
// window bucketer: min/max extrema and the running mean.
func TestGaugeWindowsFold(t *testing.T) {
	events := loadGauges(t)
	wins := Windows(events, time.Second, nil)
	if len(wins) != 2 {
		t.Fatalf("%d windows, want 2", len(wins))
	}
	stats, ok := wins[0].Gauges["gauge"]
	if !ok {
		t.Fatalf("first window has no gauge group: %+v", wins[0])
	}
	util := stats["util"]
	if util.N != 5 || util.Min != 0.2 || util.Max != 1 {
		t.Fatalf("util stat = %+v, want n=5 min=0.2 max=1", util)
	}
	if got, want := util.mean(), (0.2+0.4+0.9+1+0.5)/5; got != want {
		t.Fatalf("util mean = %g, want %g", got, want)
	}
	if (GaugeStat{}).mean() != 0 {
		t.Fatal("empty GaugeStat mean not 0")
	}
	// Gauge levels must never leak into the counter groups (where a
	// later rate conversion would corrupt them).
	if _, ok := wins[0].Groups["gauge"]; ok {
		t.Fatal("gauge events folded into counter groups")
	}
}

func TestSummarizeTotals(t *testing.T) {
	events := loadStream(t)
	s := Summarize(events, []string{"stack"})
	var nfsNet *Group
	for _, g := range s.Groups {
		if g.Subsys == SubsysNet && g.Tags["stack"] == "nfsv3" {
			nfsNet = g
		}
	}
	if nfsNet == nil {
		t.Fatal("no net/nfsv3 group")
	}
	if got := nfsNet.Counters["messages"]; got != 15 {
		t.Fatalf("messages total = %d, want 15", got)
	}
	if nfsNet.FirstT != 1000000000 || nfsNet.LastT != 2000000000 {
		t.Fatalf("window [%d, %d]", nfsNet.FirstT, nfsNet.LastT)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64(nil), 50); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}
