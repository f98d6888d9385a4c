package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cli.golden from this run")

// experimentNames is every experiment the CLI must offer, in help order.
var experimentNames = strings.Fields("paper scale transport replay wan fault health contend trace")

// goldenCases is one tiny invocation per mode of every experiment. $T is a
// scratch directory shared by the whole list (trace -from reads what the
// case before it wrote); every file a case names under it is hashed after
// the case ran.
var goldenCases = []string{
	"paper -table 2 -metrics $T/paper-t2.jsonl",
	"paper -table 3 -check -metrics $T/paper-t3.jsonl",
	"paper -figure 4 -metrics $T/paper-f4.jsonl",
	"paper -figure 3 -metrics $T/paper-f3.jsonl",
	"paper -figure 5 -metrics $T/paper-f5.jsonl",
	"paper -table 6 -scale 0.02 -metrics $T/paper-t6.jsonl",
	"paper -table 9 -scale 0.02 -metrics $T/paper-t9.jsonl",
	"paper -table 7 -scale 0.02 -metrics $T/paper-t7.jsonl",
	"paper -table 8 -scale 0.05 -metrics $T/paper-t8.jsonl",
	"paper -table 5 -scale 0.01 -metrics $T/paper-t5.jsonl",
	"paper -table 4 -size 1 -metrics $T/paper-t4.jsonl",
	"paper -figure 6 -size 1 -step 80 -metrics $T/paper-f6.jsonl",
	"paper -ablations -metrics $T/paper-ablations.jsonl",
	"paper -figure 7 -metrics $T/paper-f7.jsonl",
	"scale -clients 1,2 -workloads seq-write -stacks nfsv3,iscsi -size 1 -metrics $T/scale.jsonl",
	"scale -clients 16,10000 -background -stacks iscsi -workloads seq-write -size 1 -metrics $T/scale-fleet.jsonl",
	"transport -stacks nfsv3,iscsi -workloads seq-read -rtts 0.2 -loss 0,1 -conns 1,2 -size 1 -metrics $T/transport.jsonl",
	"replay -profile eecs -clients 2 -ops 100 -stacks nfsv3,iscsi -transports fluid -trace $T/replay-spans.jsonl -trace-sample 10 -metrics $T/replay.jsonl",
	"wan -clients 1,2 -stacks nfsv3,iscsi -capacities 8 -qdisc droptail -mixes straggler -size 256 -health default -metrics $T/wan.jsonl",
	"fault -families server-crash -stacks nfsv3,iscsi -transports fluid -metrics $T/fault.jsonl",
	"health -families server-crash -stacks nfsv3 -transports fluid -metrics $T/health.jsonl",
	"contend -workloads pingpong -stacks nfsv3,iscsi -transports fluid -clients 3 -iters 20 -metrics $T/contend.jsonl",
	"trace -stack nfsv3 -transport tcp -workload seq-read -size 64 -trace $T/trace-spans.jsonl -chrome $T/trace-chrome.json",
	"trace -from $T/trace-spans.jsonl",
}

// slowCase is skipped under -short (it synthesises both Section 7 traces).
const slowCase = "paper -figure 7"

// TestCLIGolden locks what every experiment prints and streams. The file
// was generated by the fifteen separate binaries this CLI replaced, so it
// passing without -update is the proof that the move changed no output.
// The paper cases were regenerated once, when seven experiments became
// `paper`: each one's stdout is its old command's, and its stream differs
// only in the cmd tag (see CHANGES.md).
func TestCLIGolden(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full case list; drop -short")
	}
	dir := t.TempDir()
	var got []string
	for _, c := range goldenCases {
		if testing.Short() && strings.HasPrefix(c, slowCase) {
			continue
		}
		got = append(got, caseSection(t, dir, c))
	}
	for _, name := range experimentNames {
		got = append(got, flagSection(t, name))
	}

	path := filepath.Join("testdata", "cli.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	starts := sectionStart.FindAllIndex(data, -1)
	for i, at := range starts {
		end := len(data)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		if s := string(data[at[0]:end]); !(testing.Short() && strings.HasPrefix(s, "== "+slowCase)) {
			want = append(want, s)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d sections, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("section differs from %s (regenerating it would hide a behaviour change):\n--- got\n%s--- want\n%s",
				path, got[i], want[i])
		}
	}
}

// caseSection runs one command line and renders its golden section: the
// line, the exit code, stdout, and the SHA-256 of every $T file it names.
func caseSection(t *testing.T, dir, line string) string {
	t.Helper()
	args := strings.Fields(strings.ReplaceAll(line, "$T", dir))
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Errorf("%s: exit %d, stderr:\n%s", line, code, stderr.String())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\nexit %d\n%s", line, code, strings.ReplaceAll(stdout.String(), dir, "$T"))
	for _, a := range args {
		if !strings.HasPrefix(a, dir) {
			continue
		}
		data, err := os.ReadFile(a)
		if err != nil {
			t.Errorf("%s: %v", line, err)
		}
		fmt.Fprintf(&b, "sha256 %s %x\n", strings.Replace(a, dir, "$T", 1), sha256.Sum256(data))
	}
	return b.String()
}

var (
	sectionStart = regexp.MustCompile(`(?m)^== `)
	flagLine     = regexp.MustCompile(`^  -(\S+)`)
	defaultTail  = regexp.MustCompile(`\(default (\S*)\)$`)
)

// flagSection renders "<name> -h" as a sorted name=default list, so the
// golden pins every experiment's option set without pinning help prose.
func flagSection(t *testing.T, name string) string {
	t.Helper()
	var out bytes.Buffer
	if code := run([]string{name, "-h"}, &out, &out); code != 0 {
		t.Errorf("%s -h: exit %d", name, code)
	}
	var flags []string
	for _, l := range strings.Split(out.String(), "\n") {
		if m := flagLine.FindStringSubmatch(l); m != nil {
			flags = append(flags, m[1]+"=")
		} else if m := defaultTail.FindStringSubmatch(l); m != nil && len(flags) > 0 {
			flags[len(flags)-1] += strings.Trim(m[1], `"`)
		}
	}
	sort.Strings(flags)
	return fmt.Sprintf("== flags %s\n%s\n", name, strings.Join(flags, "\n"))
}
