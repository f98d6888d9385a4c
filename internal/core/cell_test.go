package core

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fault"
	"repro/internal/netqueue"
	"repro/internal/testbed"
	"repro/internal/vfs"
)

// TestClientCountsNeverPanic: a zero or negative client count reaching
// any cluster sweep through the library (the cmds reject it at the flag)
// is an error where the count is a sweep axis, and the documented default
// where it is a single knob — never a panic. RunScaling used to index an
// empty slice on Counts: []int{0}.
func TestClientCountsNeverPanic(t *testing.T) {
	fluid := []testbed.Transport{testbed.TransportFluid}
	nfs := []Stack{NFSv3}
	for _, n := range []int{0, -3} {
		if cells, err := RunScaling(ScaleConfig{Counts: []int{n}, Workloads: []string{"seq-write"},
			Stacks: nfs, FileSize: 64 << 10}); err == nil {
			t.Errorf("RunScaling accepted %d clients: %+v", n, cells)
		}
		if cells, err := RunWAN(WANConfig{Counts: []int{n}, Stacks: nfs, Transports: fluid,
			Capacities: []int64{4 << 20}, Disciplines: []netqueue.Discipline{netqueue.DropTail},
			Mixes: []string{"lan"}, FileSize: 64 << 10}); err == nil {
			t.Errorf("RunWAN accepted %d clients: %+v", n, cells)
		}

		replay, err := RunReplay(ReplayConfig{Profiles: []string{"eecs"}, Stacks: nfs,
			Transports: fluid, Clients: n, MaxOps: 20, DeviceBlocks: 8192})
		if err != nil || len(replay) != 1 || replay[0].Clients != 4 {
			t.Errorf("RunReplay with %d clients: %+v, %v (want the default 4)", n, replay, err)
		}
		faults, err := RunFault(FaultConfig{Families: []fault.Family{fault.LinkFlap}, Stacks: nfs,
			Transports: fluid, Clients: n})
		if err != nil || len(faults) != 1 || faults[0].Clients != 2 {
			t.Errorf("RunFault with %d clients: %+v, %v (want the default 2)", n, faults, err)
		}
		contend, err := RunContention(ContendConfig{Workloads: []string{ContendPingPong}, Stacks: nfs,
			Transports: fluid, Clients: n, Iters: 3})
		if err != nil || len(contend) != 1 || contend[0].Clients != 4 {
			t.Errorf("RunContention with %d clients: %+v, %v (want the default 4)", n, contend, err)
		}
		// One control and one fault cell, on the default two clients.
		if cells, err := RunHealth(HealthConfig{Families: []fault.Family{fault.LinkFlap}, Stacks: nfs,
			Transports: fluid, Clients: n}); err != nil || len(cells) != 2 {
			t.Errorf("RunHealth with %d clients: %+v, %v", n, cells, err)
		}
	}
}

// TestVariants: the one place that knows which stack/transport pairs
// exist and where the MC/S connection knob applies. The second case is the
// transport sweep's list, in the order its cells (and hostbench's pinned
// cluster cells) come out: UDP before TCP, one iSCSI cell per count.
func TestVariants(t *testing.T) {
	fluid, udp, tcp := testbed.TransportFluid, testbed.TransportUDP, testbed.TransportTCP
	for _, c := range []struct {
		transports []testbed.Transport
		conns      []int
		want       []variant
	}{
		{[]testbed.Transport{fluid, udp, tcp}, []int{4}, []variant{
			{NFSv3, fluid, 1}, {NFSv3, udp, 1}, {NFSv3, tcp, 1}, {ISCSI, fluid, 1}, {ISCSI, tcp, 4},
		}},
		{[]testbed.Transport{udp, tcp}, []int{1, 2, 4}, []variant{
			{NFSv3, udp, 1}, {NFSv3, tcp, 1}, {ISCSI, tcp, 1}, {ISCSI, tcp, 2}, {ISCSI, tcp, 4},
		}},
	} {
		if got := variants([]Stack{NFSv3, ISCSI}, c.transports, c.conns...); !slices.Equal(got, c.want) {
			t.Errorf("variants(%v, %v) = %+v, want %+v", c.transports, c.conns, got, c.want)
		}
	}
	if l := variantLabel(ISCSI, testbed.TransportTCP); l != "iSCSI/tcp" {
		t.Errorf("label = %q", l)
	}
}

// TestOneCellPath: source-level guard, as TestOneCommandPath is for iSCSI.
// Every experiment builds its cell, frames its window and assigns the NFS v3 /
// iSCSI pair through cell.go; a second builder, a hand-framed window or
// another copy of the pair assignment in this package or in cmd/repro fails
// here.
func TestOneCellPath(t *testing.T) {
	rules := []struct {
		pattern  string
		max      int  // occurrences allowed across both directories (-1: any)
		cellOnly bool // and only in cell.go
	}{
		{`testbed\.New\(`, 1, true},
		{`testbed\.NewCluster\(`, 1, true},
		{`BeginWindow`, -1, true},
		{`if stack == NFSv3`, 1, false},
		{`\b(newBed|dbBed)\b`, 0, false},
	}
	var files []string
	for _, dir := range []string{".", filepath.Join("..", "..", "cmd", "repro")} {
		found, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(found) == 0 {
			t.Fatalf("no sources in %s: %v", dir, err)
		}
		files = append(files, found...)
	}
	for _, r := range rules {
		re, total := regexp.MustCompile(r.pattern), 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			n := len(re.FindAll(src, -1))
			total += n
			if n > 0 && r.cellOnly && f != "cell.go" {
				t.Errorf("%s matches %s: only cell.go builds and frames cells", f, r.pattern)
			}
		}
		if r.max >= 0 && total > r.max {
			t.Errorf("%s appears %d times, want at most %d", r.pattern, total, r.max)
		}
	}
}

// TestFailedCellIsClosed: a cell whose body fails is torn down like any
// other. Driven directly, every syscall on the captured testbed then fails
// and its blocks are back in the pool; through the four entry points that
// used to return without Cluster.Close (a volume too small for the workload
// fails each), the planted pool has the cell's blocks when the call returns.
func TestFailedCellIsClosed(t *testing.T) {
	boom := errors.New("boom")
	pool := &blockdev.Pool{Poison: true}
	var captured *testbed.Testbed
	err := Options{DeviceBlocks: 8192, pool: pool}.onBed("test", nil, testbed.Config{Kind: ISCSI},
		func(tb *testbed.Testbed) error {
			captured = tb
			if err := tb.WriteFile("/f", make([]byte, 8192)); err != nil {
				return err
			}
			return boom
		})
	if err != boom {
		t.Fatalf("onBed returned %v, want the body's error", err)
	}
	if pool.Len() == 0 {
		t.Error("the failed cell returned no block to the pool")
	}
	if _, err := captured.Stat("/f"); err == nil {
		t.Error("stat succeeds on the failed cell's testbed: it was not closed")
	}
	if err := captured.Mkdir("/d"); err == nil {
		t.Error("mkdir succeeds on the failed cell's testbed: it was not closed")
	}

	for name, run := range map[string]func(Options) error{
		"RunTable8":  func(o Options) error { _, err := RunTable8(o, 1); return err },
		"RunFigure3": func(o Options) error { _, err := RunFigure3(o, []int{100000}); return err },
		"AblateCommitInterval": func(o Options) error {
			_, err := AblateCommitInterval(o, []time.Duration{time.Second}, 100000)
			return err
		},
		"AblateWritePool": func(o Options) error { _, err := AblateWritePool(o, []int{64}, 64<<20); return err },
	} {
		pool := &blockdev.Pool{Poison: true}
		if err := run(Options{DeviceBlocks: 4096, pool: pool}); !errors.Is(err, vfs.ErrNoSpace) {
			t.Errorf("%s on a 16 MB volume: %v, want it to run out of space", name, err)
		}
		if pool.Len() == 0 {
			t.Errorf("%s: the failed cell returned no block to the pool", name)
		}
	}
}
