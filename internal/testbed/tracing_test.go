package testbed_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/testbed"
	"repro/internal/tracing"
)

// Tracing integration: the span trees the full stacks emit. Determinism
// (identical runs yield byte-identical JSONL), the golden critical paths
// for the two headline ops (one cold-cache NFS READ, one cold-cache
// iSCSI READ), and the exact-partition property (per-layer bills sum to
// op latency) are all enforced here, against the real protocol layers
// rather than the synthetic trees of internal/tracing's own tests.

var updateGolden = flag.Bool("update", false, "rewrite tracing golden files")

// traceScript drives a small create/write/cold-read/stat script through
// a traced testbed and returns the canonical JSONL bytes of its spans.
func traceScript(t *testing.T, kind testbed.Kind, tr testbed.Transport) []byte {
	t.Helper()
	tracer := tracing.New(tracing.Config{})
	tb, err := testbed.New(testbed.Config{
		Kind:         kind,
		DeviceBlocks: 8192,
		Seed:         7,
		Transport:    tr,
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xab}, 16<<10)
	if err := tb.Client.WriteFile("/f0", data); err != nil {
		t.Fatal(err)
	}
	if err := tb.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Client.ReadFile("/f0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Client.Stat("/f0"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracing.WriteSpans(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracingDeterminism runs every stack under the fluid and TCP wire
// models twice and demands byte-identical span streams, then round-trips
// the stream through the strict decoder (schema validation included).
func TestTracingDeterminism(t *testing.T) {
	for _, kind := range testbed.AllKinds {
		for _, tr := range []testbed.Transport{testbed.TransportFluid, testbed.TransportTCP} {
			name := fmt.Sprintf("%v/%v", kind, tr)
			t.Run(name, func(t *testing.T) {
				a := traceScript(t, kind, tr)
				b := traceScript(t, kind, tr)
				if !bytes.Equal(a, b) {
					t.Fatalf("identical runs produced different span streams (%d vs %d bytes)",
						len(a), len(b))
				}
				spans, err := tracing.ReadSpans(bytes.NewReader(a))
				if err != nil {
					t.Fatalf("stream does not round-trip: %v", err)
				}
				if len(spans.Spans()) == 0 {
					t.Fatal("traced script produced no spans")
				}
			})
		}
	}
}

// coldReadRoot performs one cold-cache 4 KB read on a fresh testbed and
// returns the resulting spans plus the read's root span.
func coldReadRoot(t *testing.T, kind testbed.Kind, tr testbed.Transport) ([]tracing.Span, tracing.Span) {
	t.Helper()
	tracer := tracing.New(tracing.Config{})
	tb, err := testbed.New(testbed.Config{
		Kind:         kind,
		DeviceBlocks: 8192,
		Seed:         7,
		Transport:    tr,
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Client.WriteFile("/f0", bytes.Repeat([]byte{0x5a}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := tb.ColdCache(); err != nil {
		t.Fatal(err)
	}
	tracer.Reset() // the measured window holds exactly the cold read
	f, err := tb.Client.Open("/f0")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := tb.Client.ReadFileAt(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := tb.Client.Close(f); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Spans()
	for _, s := range spans {
		if s.Parent == 0 && tracer.Op(s) == "read" {
			return spans, s
		}
	}
	t.Fatal("no root read span in trace")
	return nil, tracing.Span{}
}

// checkColdRead asserts the acceptance properties of a cold READ trace —
// the span tree covers the required layers and the critical path
// partitions the op latency exactly — and compares the attribution
// against its golden file (regenerate with -update).
func checkColdRead(t *testing.T, spans []tracing.Span, root tracing.Span,
	requiredLayers []tracing.Layer, golden string) {
	t.Helper()

	inTree := map[int64]bool{root.ID: true}
	layers := map[tracing.Layer]bool{}
	for _, s := range spans { // parents precede children, one pass suffices
		if inTree[s.Parent] {
			inTree[s.ID] = true
		}
		if inTree[s.ID] {
			layers[s.Layer] = true
		}
	}
	for _, l := range requiredLayers {
		if !layers[l] {
			t.Errorf("cold read span tree missing layer %q (have %v)", l, layers)
		}
	}

	attr, err := tracing.CriticalPath(spans, root.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := attr.Total(), root.End-root.Start; got != want {
		t.Fatalf("critical path sums to %v, op latency is %v", got, want)
	}

	var sb strings.Builder
	for _, l := range tracing.Layers {
		if d, ok := attr[l.String()]; ok && d > 0 {
			fmt.Fprintf(&sb, "%s %d\n", l, d.Nanoseconds())
		}
	}
	fmt.Fprintf(&sb, "total %d\n", (root.End - root.Start).Nanoseconds())
	path := filepath.Join("testdata", golden)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/testbed -run ColdCacheCriticalPath -update)", err)
	}
	if sb.String() != string(want) {
		t.Errorf("critical path drifted from golden %s:\ngot:\n%swant:\n%s",
			golden, sb.String(), want)
	}
}

// TestNFSReadColdCacheCriticalPath pins the attribution of one cold-cache
// NFS v3 READ over virtual-time TCP: the whole protocol path — syscall
// surface, RPC exchange, TCP legs, link frames, server CPU and disk —
// must appear in the tree, and every nanosecond of the op must be billed
// to exactly one of those layers.
func TestNFSReadColdCacheCriticalPath(t *testing.T) {
	spans, root := coldReadRoot(t, testbed.NFSv3, testbed.TransportTCP)
	checkColdRead(t, spans, root, []tracing.Layer{
		tracing.LayerSyscall, tracing.LayerRPC, tracing.LayerTCP,
		tracing.LayerLink, tracing.LayerCPUServer, tracing.LayerDisk,
	}, "nfs_read_critpath.golden")
}

// TestISCSIReadColdCacheCriticalPath pins the attribution of one
// cold-cache iSCSI READ (fluid wire model, the sync initiator path):
// syscall surface, client ext3 cache miss, iSCSI exchange, link frames,
// server CPU and disk.
func TestISCSIReadColdCacheCriticalPath(t *testing.T) {
	spans, root := coldReadRoot(t, testbed.ISCSI, testbed.TransportFluid)
	checkColdRead(t, spans, root, []tracing.Layer{
		tracing.LayerSyscall, tracing.LayerCache, tracing.LayerISCSI,
		tracing.LayerLink, tracing.LayerCPUServer, tracing.LayerDisk,
	}, "iscsi_read_critpath.golden")
}

// TestISCSITCPReadColdCacheCriticalPath pins the attribution of one
// cold-cache iSCSI READ over virtual-time TCP — the MC/S session path.
// Since the pipelined data phases re-parent under their covering command
// span, this cell breaks down per layer like the fluid one: TCP legs,
// link frames, server CPU and disk all appear, and the bare iscsi layer
// (protocol overhead the children don't cover) bills less than half the
// op instead of lumping the whole pipeline.
func TestISCSITCPReadColdCacheCriticalPath(t *testing.T) {
	spans, root := coldReadRoot(t, testbed.ISCSI, testbed.TransportTCP)
	checkColdRead(t, spans, root, []tracing.Layer{
		tracing.LayerSyscall, tracing.LayerCache, tracing.LayerISCSI,
		tracing.LayerTCP, tracing.LayerLink, tracing.LayerCPUServer,
		tracing.LayerDisk,
	}, "iscsi_tcp_read_critpath.golden")
	attr, err := tracing.CriticalPath(spans, root.ID)
	if err != nil {
		t.Fatal(err)
	}
	if op := root.End - root.Start; 2*attr[tracing.LayerISCSI.String()] >= op {
		t.Errorf("iscsi layer bills %v of a %v op (≥50%%): MC/S data phases are not nesting under their command span",
			attr[tracing.LayerISCSI.String()], op)
	}
}

// TestTracingDisabledIsInert verifies the documented off state at the
// testbed level: a nil tracer produces no spans and never disturbs the
// simulation — a traced and an untraced run of the same script land on
// the same virtual clock.
func TestTracingDisabledIsInert(t *testing.T) {
	elapsed := func(tracer *tracing.Tracer) time.Duration {
		tb, err := testbed.New(testbed.Config{
			Kind: testbed.NFSv3, DeviceBlocks: 8192, Seed: 7, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Client.WriteFile("/f0", bytes.Repeat([]byte{1}, 8192)); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Client.ReadFile("/f0"); err != nil {
			t.Fatal(err)
		}
		return tb.Clock.Now()
	}
	tracer := tracing.New(tracing.Config{})
	traced := elapsed(tracer)
	untraced := elapsed(nil)
	if traced != untraced {
		t.Fatalf("tracing changed virtual time: traced %v, untraced %v", traced, untraced)
	}
	if len(tracer.Spans()) == 0 {
		t.Fatal("enabled tracer captured nothing")
	}
}
