package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestTableIsTheExperimentList pins the names (each is also the `cmd` tag of
// its stream, which the golden's hashes cover).
func TestTableIsTheExperimentList(t *testing.T) {
	var names []string
	for _, x := range experiments {
		names = append(names, x.name)
	}
	if got, want := strings.Join(names, " "), strings.Join(experimentNames, " "); got != want {
		t.Errorf("experiments:\n got %s\nwant %s", got, want)
	}
}

// TestFailedSweepKeepsStreamAndProfile: the second cell of this sweep cannot
// log in over a link that drops half its frames. The separate binaries
// exited from inside the failure and left both files at 0 bytes.
func TestFailedSweepKeepsStreamAndProfile(t *testing.T) {
	dir := t.TempDir()
	stream, profile := filepath.Join(dir, "f.jsonl"), filepath.Join(dir, "p.prof")
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields("transport -stacks iscsi -workloads seq-read -rtts 0.2 -loss 0,50 -conns 1 -size 1 "+
		"-metrics "+stream+" -cpuprofile "+profile), &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "repro transport: transport seq-read/iSCSI") {
		t.Fatalf("exit %d, stderr %q; want the second cell's failure and exit 1", code, stderr.String())
	}
	f, err := os.Open(stream)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := metrics.ReadEvents(f)
	if err != nil {
		t.Fatalf("stream of a failed sweep does not validate: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("the completed cell's events are not on disk")
	}
	for _, e := range events {
		if e.Tags["cmd"] != "transport" || e.Tags["loss"] != "0" {
			t.Fatalf("event outside the completed loss=0 cell: %v", e.Tags)
		}
	}
	if fi, err := os.Stat(profile); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile not written: %v", err)
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Errorf("the failed run left its CPU profile running: %v", err)
	}
	pprof.StopCPUProfile()
}

// TestHostileCommandLines: every row is an error that names what is wrong,
// a non-zero exit and nothing on stdout. At the parent commit the first
// eleven panicked, printed a negative rate and exited 0, or ran.
func TestHostileCommandLines(t *testing.T) {
	rows := []struct {
		line   string
		code   int
		stderr string
	}{
		{"transport -chunk -5", 2, "bad -chunk value -5"},
		{"trace -chunk 0", 2, "bad -chunk value 0"},
		{"scale -size -1", 2, "bad -size value -1"},
		{"transport -size -1", 2, "bad -size value -1"},
		{"trace -size -1", 2, "bad -size value -1"},
		{"trace -conns 100", 2, "bad -conns value 100 (range 1..16)"},
		{"trace -window -3", 2, "bad -window value -3"},
		{"trace -rtt -5ms", 1, "bad -rtt value -5ms"},
		{"trace -loss 200", 2, "bad -loss value 200"},
		{"replay -window -1", 2, "bad -window value -1"},
		{"replay -dirs -1", 2, "bad -dirs value -1"},
		{"replay -profile both -dump refused.jsonl", 1, "-dump needs exactly one -profile (eecs or campus)"},
		{"scale -clients 1 -workloads seq-write,postmark -stacks nfsv3 -size 1 -pm-files -5", 2, "bad -pm-files value -5"},
		{"scale -pm-txns 0", 2, "bad -pm-txns value 0"},
		{"fault -conns 17", 2, "bad -conns value 17 (range 1..16)"},
		{"contend -conns 17", 2, "bad -conns value 17 (range 1..16)"},
		{"transport -conns 1,17", 2, "bad -conns value 17 (range 1..16)"},
		{"wan -clients 1,200", 1, "bad -clients value 200"},
		{"scale -clients 1,200", 1, "pass -background"},
		{"contend -workloads pingpong,nope", 2, `bad -workloads value "nope" (have pingpong, append, readerwriter)`},
		{"fault -families meteor", 2, `unknown fault family "meteor"`},
		{"health -stacks nfs", 2, `bad -stacks value "nfs"`},
		{"paper -table 1", 2, "bad -table value 1 (range 2..10)"},
		{"paper -figure 3,8", 2, "bad -figure value 8 (range 3..7)"},
		{"paper -table 5 -scale 0.01 extra args", 2, `unexpected argument "extra"`},
		{"paper", 2, "pick one of -table, -figure, -section7, -ablations, -all"},
		{"paper -scale 0.01", 2, "pick one of -table, -figure, -section7, -ablations, -all"},
		{"nosuch -x", 2, `repro: unknown experiment "nosuch"`},
		{"", 2, "repro: no experiment named"},
		{"paper -table 4 -clients 2", 2, "flag provided but not defined: -clients"},
		{"scale -trace-sample 5", 1, "-trace-sample/-trace-slow require -trace"},
		{"fault -health default", 1, "-health requires -metrics"},
	}
	for _, r := range rows {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(r.line), &stdout, &stderr)
		if code != r.code || !strings.Contains(stderr.String(), r.stderr) || stdout.Len() != 0 {
			t.Errorf("repro %s: exit %d, stderr %q, %d bytes on stdout; want exit %d, stderr containing %q, empty stdout",
				r.line, code, stderr.String(), stdout.Len(), r.code, r.stderr)
		}
	}
}

// TestPaperSelection: the seven experiments paper replaced are unknown
// names, not aliases; selected artefacts run in the artefact table's order
// whatever order the flags name them in; Tables 9 and 10 are one run.
func TestPaperSelection(t *testing.T) {
	for _, old := range strings.Fields("microbench macrobench postmark seqrand latency ablate tracesim") {
		var stdout, stderr bytes.Buffer
		if code := run([]string{old, "-all"}, &stdout, &stderr); code != 2 ||
			!strings.Contains(stderr.String(), `repro: unknown experiment "`+old+`"`) {
			t.Errorf("repro %s: exit %d, stderr %q; want exit 2 as an unknown experiment", old, code, stderr.String())
		}
	}
	stdout := func(line string) string {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(line), &stdout, &stderr); code != 0 {
			t.Fatalf("repro %s: exit %d, stderr %q", line, code, stderr.String())
		}
		return stdout.String()
	}
	if got, want := stdout("paper -table 3,2"), stdout("paper -table 2")+stdout("paper -table 3"); got != want {
		t.Errorf("paper -table 3,2 is not Table 2 then Table 3:\n%s", got)
	}
	if got, want := stdout("paper -table 10,9 -scale 0.01"), stdout("paper -table 9 -scale 0.01"); got != want {
		t.Errorf("paper -table 10,9 is not one run of Tables 9 and 10:\n%s\nwant\n%s", got, want)
	}
}

// TestHelp: both help forms go to stdout and exit 0.
func TestHelp(t *testing.T) {
	for _, line := range []string{"help", "-h", "scale -h", "trace -trace x -h"} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(line), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Errorf("repro %s: exit %d, stderr %q", line, code, stderr.String())
		}
		want := "  scale "
		if strings.Contains(line, " ") {
			want = "  -seed "
		}
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("repro %s: no %q in\n%s", line, want, stdout.String())
		}
	}
}

// TestREADMEListsTheExperiments keeps README's command table equal to
// `repro help`: it is the text between the two markers, not hand-kept prose.
func TestREADMEListsTheExperiments(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- repro help -->\n```\n", "```\n<!-- /repro help -->\n"
	_, rest, ok := strings.Cut(string(readme), begin)
	block, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %q ... %q block", begin, end)
	}
	var help bytes.Buffer
	listing(&help)
	if block != help.String() {
		t.Errorf("README.md's experiment table is stale; replace the block between the markers with the output of `go run ./cmd/repro help`:\n%s", help.String())
	}
}

// TestWANDefaultCapacities: without -capacities, wan runs the sweep's own
// bottlenecks, 117 and 12 MiB/s (122.7 and 12.6 MB/s), not 117 and 12 MB/s.
func TestWANDefaultCapacities(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("wan -clients 1 -stacks nfsv3 -mixes lan -qdisc droptail -size 64"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, pipe := range []string{"pipe=122.7 MB/s", "pipe=12.6 MB/s"} {
		if !strings.Contains(stdout.String(), pipe) {
			t.Errorf("no %q in\n%s", pipe, stdout.String())
		}
	}
}
