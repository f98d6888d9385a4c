package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/testbed"
	"repro/internal/trace"
)

// TestRenderReplaySnapshot pins the replay table layout byte for byte.
func TestRenderReplaySnapshot(t *testing.T) {
	cells := []ReplayCell{
		{
			Profile: "eecs", Stack: NFSv3, Transport: testbed.TransportFluid, Conns: 1,
			Clients: 4, Ops: 2000, Elapsed: 2 * time.Second,
			P50: 150 * time.Microsecond, P90: 420 * time.Microsecond,
			P99: 1100 * time.Microsecond, Mean: 210 * time.Microsecond,
			SlowestClientMean: 260 * time.Microsecond, OpsPerSec: 1000,
		},
		{
			Profile: "eecs", Stack: ISCSI, Transport: testbed.TransportTCP, Conns: 2,
			Clients: 4, Ops: 2000, Elapsed: 2 * time.Second,
			P50: 90 * time.Microsecond, P90: 200 * time.Microsecond,
			P99: 640 * time.Microsecond, Mean: 120 * time.Microsecond,
			SlowestClientMean: 150 * time.Microsecond, OpsPerSec: 1000,
		},
	}
	var buf bytes.Buffer
	RenderReplay(&buf, cells)
	want := "Trace replay: eecs (open-loop, 4 clients, 2000 ops)\n" +
		"variant                  p50       p90       p99      mean   slowest      ops/s\n" +
		"NFS v3/fluid           150µs     420µs     1.1ms     210µs     260µs     1000.0\n" +
		"iSCSI/tcp x2            90µs     200µs     640µs     120µs     150µs     1000.0\n" +
		"\n"
	if got := buf.String(); got != want {
		t.Fatalf("render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunReplaySmall runs a tiny end-to-end sweep and sanity-checks cell
// shape: ops replayed, ordered percentiles, positive throughput.
func TestRunReplaySmall(t *testing.T) {
	maxOps := 120
	if testing.Short() {
		maxOps = 50
	}
	cells, err := RunReplay(ReplayConfig{
		Profiles:     []string{"eecs"},
		Stacks:       []Stack{NFSv3, ISCSI},
		Transports:   []testbed.Transport{testbed.TransportFluid},
		Clients:      2,
		MaxOps:       maxOps,
		DirMod:       16,
		DeviceBlocks: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Ops != maxOps {
			t.Errorf("%s: replayed %d ops, want %d", c.label(), c.Ops, maxOps)
		}
		if c.P50 > c.P90 || c.P90 > c.P99 {
			t.Errorf("%s: percentiles out of order: %v %v %v", c.label(), c.P50, c.P90, c.P99)
		}
		if c.P99 <= 0 || c.OpsPerSec <= 0 || c.Elapsed <= 0 {
			t.Errorf("%s: degenerate cell %+v", c.label(), c)
		}
	}
}

// TestRunReplayFromRecords drives the sweep from an explicit op log (the
// JSONL path): records fold onto the cluster and the block is labeled.
func TestRunReplayFromRecords(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 40; i++ {
		kind := trace.OpRead
		if i%4 == 0 {
			kind = trace.OpWrite
		}
		recs = append(recs, trace.Record{
			At: time.Duration(i) * 5 * time.Millisecond, Client: i % 3, Dir: i % 8, Kind: kind,
		})
	}
	cells, err := RunReplay(ReplayConfig{
		Records:      recs,
		RecordsName:  "synthetic",
		Stacks:       []Stack{NFSv3},
		Transports:   []testbed.Transport{testbed.TransportFluid},
		Clients:      3,
		MaxOps:       -1, // negative = no truncation
		DeviceBlocks: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Profile != "synthetic" || cells[0].Ops != len(recs) {
		t.Fatalf("unexpected cells: %+v", cells)
	}
}

// TestRunReplaySkipsISCSIOverUDP verifies the sweep drops the impossible
// iSCSI/UDP combination instead of erroring.
func TestRunReplaySkipsISCSIOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: covered by TestRunReplaySmall")
	}
	cells, err := RunReplay(ReplayConfig{
		Profiles:     []string{"eecs"},
		Stacks:       []Stack{NFSv3, ISCSI},
		Transports:   []testbed.Transport{testbed.TransportUDP},
		Clients:      2,
		MaxOps:       30,
		DirMod:       8,
		DeviceBlocks: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Stack != NFSv3 {
		t.Fatalf("expected one NFS/udp cell, got %+v", cells)
	}
}
