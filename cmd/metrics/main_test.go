package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// ablateStream writes, to a file, the stream `repro paper -ablations` writes for the
// export-durability knob: the same core call, under a recorder tagged as
// repro tags it. It returns the path and the number of events.
func ablateStream(t *testing.T) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	sink := metrics.NewSink(&buf)
	opts := core.Options{DeviceBlocks: 8192, Metrics: metrics.NewRecorder(sink, metrics.Tags{"cmd": "paper"})}
	if _, _, err := core.AblateSyncExport(opts, 20); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ablate.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, bytes.Count(buf.Bytes(), []byte("\n"))
}

// runOut runs the command line and returns its stdout.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// TestValidateCountsEveryEvent: -validate reads the stream, named as an
// argument or through -metrics, and reports each event once per naming.
func TestValidateCountsEveryEvent(t *testing.T) {
	path, n := ablateStream(t)
	if n == 0 {
		t.Fatal("the ablation wrote no events")
	}
	for _, args := range [][]string{
		{"-validate", path},
		{"-validate", "-metrics", path},
	} {
		out, err := runOut(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if want := "ok: " + strconv.Itoa(n) + " events across 1 stream(s)"; !strings.HasPrefix(out, want) {
			t.Errorf("%v: %q, want prefix %q", args, out, want)
		}
	}
	out, err := runOut(t, "-validate", "-metrics", path, path)
	if err != nil || !strings.HasPrefix(out, "ok: "+strconv.Itoa(2*n)+" events across 2 stream(s)") {
		t.Errorf("a stream named twice: %q, %v", out, err)
	}
}

// TestByGroupsOnTheNamedTags: -by makes one row per value of the named
// tags, so the two export settings come out as two groups.
func TestByGroupsOnTheNamedTags(t *testing.T) {
	path, _ := ablateStream(t)
	out, err := runOut(t, "-by", "knob, setting", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"knob=export-durability", "setting=async-export", "setting=sync-export"} {
		if !strings.Contains(out, want) {
			t.Errorf("-by knob,setting output lacks %q:\n%s", want, out)
		}
	}
	def, err := runOut(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(def, "setting=") {
		t.Errorf("the default grouping split on setting:\n%s", def)
	}
}

// TestRateBucketsByVirtualTime: -rate renders windows instead of the
// roll-up, and a narrower width gives more of them.
func TestRateBucketsByVirtualTime(t *testing.T) {
	path, _ := ablateStream(t)
	roll, err := runOut(t, path)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := runOut(t, "-rate", "1s", path)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := runOut(t, "-rate", "1ms", path)
	if err != nil {
		t.Fatal(err)
	}
	if wide == roll || wide == "" {
		t.Fatalf("-rate 1s printed the roll-up or nothing:\n%s", wide)
	}
	if strings.Count(narrow, "\n") <= strings.Count(wide, "\n") {
		t.Errorf("-rate 1ms gave %d lines, -rate 1s %d", strings.Count(narrow, "\n"), strings.Count(wide, "\n"))
	}
}

// TestBadInputsFail: a command line without input, or with a flag the
// command does not have, is a usage error (exit 2); a path that cannot be
// read or a malformed line fails the run (exit 1) naming the cause, and
// nothing reaches stdout either way.
func TestBadInputsFail(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"t":0,"subsys":"net","event":"sample","counters":{"x":1}}`+"\n{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		args  []string
		usage bool
		cause string
	}{
		{"no input", nil, true, ""},
		{"unknown flag", []string{"-bogus", bad}, true, ""},
		{"unreadable path", []string{filepath.Join(dir, "missing.jsonl")}, false, "missing.jsonl"},
		{"a directory", []string{dir}, false, dir},
		{"malformed line", []string{"-validate", bad}, false, "bad.jsonl"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := runOut(t, c.args...)
			if err == nil {
				t.Fatalf("accepted; stdout %q", out)
			}
			if errors.Is(err, errUsage) != c.usage {
				t.Errorf("usage error = %v, want %v (%v)", errors.Is(err, errUsage), c.usage, err)
			}
			if !strings.Contains(err.Error(), c.cause) {
				t.Errorf("error %q does not name %q", err, c.cause)
			}
			if out != "" {
				t.Errorf("stdout %q, want nothing", out)
			}
		})
	}
	if out, err := runOut(t, "-h"); err != nil || out != "" {
		t.Errorf("-h: %q, %v; want the usage on stderr and a clean exit", out, err)
	}
}
