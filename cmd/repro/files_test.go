package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
// exit 1, and nothing on stdout.
func TestSLOSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"slos":[{"name":"only-avail","kind":"availability"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"slos":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	cell := "-families server-crash -stacks nfsv3 -transports fluid"
	for _, sweep := range []struct{ name, flag string }{{"health", "-slo"}, {"fault", "-health"}} {
		stream := filepath.Join(dir, sweep.name+".jsonl")
		line := sweep.name + " " + cell + " -metrics " + stream + " " + sweep.flag + " "
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(line+spec), &stdout, &stderr); code != 0 {
			t.Fatalf("repro %s: exit %d, stderr %q", line+spec, code, stderr.String())
		}
		f, err := os.Open(stream)
		if err != nil {
			t.Fatal(err)
		}
		events, err := metrics.ReadEvents(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
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
