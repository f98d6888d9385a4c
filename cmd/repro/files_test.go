package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestReplayDumpReadsBack: the op log `replay -dump` writes is the profile's
// synthesized trace, record for record, as `replay -file` will read it.
func TestReplayDumpReadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eecs.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", "-profile", "eecs", "-dump", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	want := trace.Synthesize(trace.EECS())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %d records that differ from the %d synthesized", len(got), len(want))
	}
	if line := fmt.Sprintf("wrote %d records (eecs) to %s\n", len(want), path); stdout.String() != line {
		t.Errorf("stdout %q, want %q", stdout.String(), line)
	}
}

// TestSLOSpecFile: `health -slo` and `-health` on any monitored sweep read
// an SLO spec file. A one-objective spec alerts under that objective's name
// alone; a missing or malformed file is an error naming the flag's cause,
// exit 1, and nothing on stdout. A spec's interval paces the gauge stream,
// and the sweep's interval flag overrides it.
func TestSLOSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"slos":[{"name":"only-avail","kind":"availability"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	paced := filepath.Join(dir, "paced.json")
	if err := os.WriteFile(paced, []byte(`{"interval":"250ms","slos":[{"name":"only-avail","kind":"availability"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"slos":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	cell := "-families server-crash -stacks nfsv3 -transports fluid"
	for _, sweep := range []struct{ name, flag, interval string }{
		{"health", "-slo", "-interval"},
		{"fault", "-health", "-health-interval"},
	} {
		stream := filepath.Join(dir, sweep.name+".jsonl")
		line := sweep.name + " " + cell + " -metrics " + stream + " " + sweep.flag + " "
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(line+spec), &stdout, &stderr); code != 0 {
			t.Fatalf("repro %s: exit %d, stderr %q", line+spec, code, stderr.String())
		}
		events := readStream(t, stream)
		fires := 0
		for _, e := range events {
			if e.Subsys != metrics.SubsysAlert {
				continue
			}
			if e.Tags["slo"] != "only-avail" {
				t.Errorf("repro %s: alert from objective %q, not the spec's", sweep.name, e.Tags["slo"])
			}
			if e.Tags["state"] == "fire" {
				fires++
			}
		}
		if fires == 0 {
			t.Errorf("repro %s: the spec's objective never fired on a server crash", sweep.name)
		}
		if got := scrapeInterval(events); got != 100*time.Millisecond {
			t.Errorf("repro %s: scrapes %v apart without an interval, want the monitor's 100ms", sweep.name, got)
		}

		for _, pace := range []struct {
			flags string
			want  time.Duration
		}{
			{"", 250 * time.Millisecond},
			{" " + sweep.interval + " 50ms", 50 * time.Millisecond},
		} {
			args := line + paced + pace.flags
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
				t.Fatalf("repro %s: exit %d, stderr %q", args, code, stderr.String())
			}
			if got := scrapeInterval(readStream(t, stream)); got != pace.want {
				t.Errorf("repro %s: scrapes %v apart, want %v", args, got, pace.want)
			}
		}

		for _, bad := range []struct{ path, stderr string }{
			{missing, "no such file or directory"},
			{malformed, "bad SLO spec"},
		} {
			var stdout, stderr bytes.Buffer
			code := run(strings.Fields(line+bad.path), &stdout, &stderr)
			if code != 1 || !strings.Contains(stderr.String(), bad.stderr) || stdout.Len() != 0 {
				t.Errorf("repro %s: exit %d, stderr %q, %d bytes on stdout; want exit 1 and %q",
					line+bad.path, code, stderr.String(), stdout.Len(), bad.stderr)
			}
		}
	}
}

// readStream decodes the -metrics stream at path.
func readStream(t *testing.T, path string) []metrics.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := metrics.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// scrapeInterval is the gauge period a stream shows: the smallest step
// between two scrapes of one cell (every cell of these sweeps has its
// own family tag), or 0 when no cell scraped twice.
func scrapeInterval(events []metrics.Event) time.Duration {
	last := map[string]int64{}
	var step int64
	for _, e := range events {
		if e.Subsys != metrics.SubsysGauge {
			continue
		}
		cell := e.Tags["family"]
		if prev, ok := last[cell]; ok && e.T > prev && (step == 0 || e.T-prev < step) {
			step = e.T - prev
		}
		last[cell] = e.T
	}
	return time.Duration(step)
}
