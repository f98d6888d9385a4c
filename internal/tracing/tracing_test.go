package tracing

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const us = time.Microsecond

// buildTree records one op: syscall[0,100) -> rpc[10,90) with link[20,30)
// and disk[40,70) children, plus a cpu record overlapping the disk span.
func buildTree(t *Tracer) {
	op := t.BeginOp(0, LayerSyscall, "read", 3)
	rpc := t.Begin(10*us, LayerRPC, "READ")
	t.Record(20*us, 30*us, LayerLink, "frame")
	t.Record(40*us, 70*us, LayerDisk, "read")
	t.Record(60*us, 80*us, LayerCPUServer, "run") // overlaps disk tail
	t.End(rpc, 90*us)
	t.End(op, 100*us)
}

func TestSpanTreeShape(t *testing.T) {
	tr := New(Config{})
	buildTree(tr)
	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	root := spans[0]
	if root.ID != 1 || root.Parent != 0 || root.Layer != LayerSyscall || root.Client != 3 {
		t.Fatalf("bad root: %+v", root)
	}
	for _, s := range spans {
		if err := s.validate(); err != nil {
			t.Fatal(err)
		}
		if s.Client != 3 {
			t.Fatalf("span %d client %d, want 3", s.ID, s.Client)
		}
	}
	if spans[1].Parent != 1 || spans[2].Parent != 2 || spans[3].Parent != 2 {
		t.Fatalf("bad parentage: %+v", spans)
	}
}

func TestCriticalPathExactPartition(t *testing.T) {
	tr := New(Config{})
	buildTree(tr)
	attr, err := CriticalPath(tr.Spans(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// syscall: [0,10)+[90,100) = 20us. rpc: [10,20)+[30,40)+[70? no —
	// cpu.server child [60,80) clips to [70,80) after disk consumes
	// [40,70), then rpc keeps [30,40) and [80,90).
	want := map[Layer]time.Duration{
		LayerSyscall:   20 * us,
		LayerRPC:       30 * us,
		LayerLink:      10 * us,
		LayerDisk:      30 * us,
		LayerCPUServer: 10 * us,
	}
	for l, d := range want {
		if attr[l.String()] != d {
			t.Errorf("layer %s: got %v, want %v (full: %v)", l, attr[l.String()], d, attr)
		}
	}
	if got, total := attr.Total(), 100*us; got != total {
		t.Fatalf("attribution sums to %v, want %v", got, total)
	}
}

func TestEveryNthSampling(t *testing.T) {
	tr := New(Config{Every: 3})
	for i := 0; i < 7; i++ {
		buildTree(tr)
	}
	roots := Roots(tr.Spans())
	if len(roots) != 3 { // ops 1, 4, 7
		t.Fatalf("got %d sampled roots, want 3", len(roots))
	}
	if len(tr.Spans()) != 15 {
		t.Fatalf("got %d spans, want 15", len(tr.Spans()))
	}
}

func TestSlowSampling(t *testing.T) {
	tr := New(Config{Slow: 50 * us})
	op := tr.BeginOp(0, LayerSyscall, "stat", 0)
	tr.End(op, 10*us) // too fast: discarded
	buildTree(tr)     // 100us: kept
	roots := Roots(tr.Spans())
	if len(roots) != 1 || tr.Op(roots[0]) != "read" {
		t.Fatalf("slow sampling kept %+v, want one read", roots)
	}
	if roots[0].ID != 1 {
		t.Fatalf("discarded ops must not consume IDs: root id %d", roots[0].ID)
	}
}

// TestDetachedSpans exercises the pipelined-work shape: two detached
// command spans open at issue time, interleave their synchronous steps
// (Enter/Exit), and close out of issue order. Spans recorded inside an
// entered slice must parent under the detached span, not its siblings.
func TestDetachedSpans(t *testing.T) {
	tr := New(Config{})
	op := tr.BeginOp(0, LayerSyscall, "read", 0)
	a := tr.BeginDetached(10*us, LayerISCSI, "read10")
	b := tr.BeginDetached(15*us, LayerISCSI, "read10")
	tr.Enter(a)
	tr.Record(20*us, 30*us, LayerLink, "frame")
	tr.Exit(a)
	tr.Enter(b)
	tr.Record(35*us, 45*us, LayerDisk, "read")
	tr.Exit(b)
	tr.EndDetached(b, 50*us) // completes before a: out of issue order
	tr.Enter(a)
	tr.Record(55*us, 65*us, LayerLink, "frame")
	tr.Exit(a)
	tr.EndDetached(a, 70*us)
	tr.End(op, 100*us)

	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6: %+v", len(spans), spans)
	}
	byOp := func(i int) Span { return spans[i] }
	// spans: 1 root, 2 a, 3 b, 4 frame(a), 5 disk(b), 6 frame(a)
	if byOp(1).Parent != 1 || byOp(2).Parent != 1 {
		t.Fatalf("detached spans must parent to the root: %+v", spans)
	}
	if byOp(3).Parent != 2 || byOp(5).Parent != 2 {
		t.Fatalf("entered slices must parent under detached span a: %+v", spans)
	}
	if byOp(4).Parent != 3 {
		t.Fatalf("entered slice must parent under detached span b: %+v", spans)
	}
	if byOp(1).End != 70*us || byOp(2).End != 50*us {
		t.Fatalf("detached ends wrong: %+v", spans)
	}
	for _, s := range spans {
		if err := s.validate(); err != nil {
			t.Fatal(err)
		}
	}
	attr, err := CriticalPath(spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := attr.Total(), 100*us; got != want {
		t.Fatalf("attribution sums to %v, want %v", got, want)
	}
}

// TestDetachedAbandonedSpanClamped: a detached span never closed (error
// path) commits as an empty interval rather than an invalid one.
func TestDetachedAbandonedSpanClamped(t *testing.T) {
	tr := New(Config{})
	op := tr.BeginOp(0, LayerSyscall, "read", 0)
	tr.BeginDetached(10*us, LayerISCSI, "read10") // never ended
	tr.End(op, 100*us)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].End != spans[1].Start {
		t.Fatalf("abandoned span not clamped: %+v", spans[1])
	}
	for _, s := range spans {
		if err := s.validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDetachedNilAndSampledSafe pins the off states: nil tracers and
// sampled-out ops make every detached-span method a no-op.
func TestDetachedNilAndSampledSafe(t *testing.T) {
	var nilT *Tracer
	ref := nilT.BeginDetached(0, LayerISCSI, "x")
	nilT.Enter(ref)
	nilT.Exit(ref)
	nilT.EndDetached(ref, us)

	tr := New(Config{Every: 2})
	for i := 0; i < 2; i++ {
		op := tr.BeginOp(0, LayerSyscall, "read", 0)
		ref := tr.BeginDetached(10*us, LayerISCSI, "read10")
		tr.Enter(ref)
		tr.Record(20*us, 30*us, LayerLink, "frame")
		tr.Exit(ref)
		tr.EndDetached(ref, 40*us)
		tr.End(op, 50*us)
	}
	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("got %d spans, want 3 (one sampled-in op)", got)
	}
}

func TestRecordOutsideOpDropped(t *testing.T) {
	tr := New(Config{})
	tr.Record(0, 10*us, LayerDisk, "read")
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("record outside any op committed %d spans", n)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(Config{})
	buildTree(tr)
	ref := tr.BeginOp(200*us, LayerSyscall, "write", 1)
	tr.SetTag(ref, "stack", "nfsv3")
	tr.End(ref, 300*us)

	var buf bytes.Buffer
	if err := WriteSpans(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans()) != len(tr.Spans()) {
		t.Fatalf("round trip lost spans: %d != %d", len(got.Spans()), len(tr.Spans()))
	}
	var buf2 bytes.Buffer
	if err := WriteSpans(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding is not canonical across a round trip")
	}
	if s := got.Spans()[5]; got.tag(s, "stack") != "nfsv3" {
		t.Fatalf("tag lost: %+v", s)
	}
}

func TestDecodeRejects(t *testing.T) {
	bad := []string{
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"read","start_ns":0,"end_ns":5,"bogus":1}`,
		`{"id":1,"parent":0,"client":0,"layer":"warp","op":"read","start_ns":0,"end_ns":5}`,
		`{"id":1,"parent":2,"client":0,"layer":"syscall","op":"read","start_ns":0,"end_ns":5}`,
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"read","start_ns":9,"end_ns":5}`,
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"","start_ns":0,"end_ns":5}`,
	}
	for _, line := range bad {
		if _, err := ReadSpans(strings.NewReader(line)); err == nil {
			t.Errorf("decode accepted %s", line)
		}
	}
}

func TestChromeExport(t *testing.T) {
	tr := New(Config{})
	buildTree(tr)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, e := range top.TraceEvents {
		switch e["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if complete != 5 || meta == 0 {
		t.Fatalf("got %d complete / %d metadata events", complete, meta)
	}
}

func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		op := tr.BeginOp(0, LayerSyscall, "read", 0)
		inner := tr.Begin(0, LayerRPC, "READ")
		tr.Record(0, us, LayerLink, "frame")
		tr.SetTag(inner, "k", "v")
		tr.End(inner, us)
		tr.End(op, 2*us)
		if tr.Enabled() {
			t.Fatal("nil tracer claims enabled")
		}
		_ = tr.Spans()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v per op, want 0", allocs)
	}
}

func TestSampledOutOpZeroGrowth(t *testing.T) {
	tr := New(Config{Every: 1 << 30})
	buildTree(tr) // first op always sampled
	committed := len(tr.Spans())
	for i := 0; i < 100; i++ {
		buildTree(tr)
	}
	if len(tr.Spans()) != committed {
		t.Fatalf("sampled-out ops grew the stream: %d -> %d", committed, len(tr.Spans()))
	}
}

func TestReset(t *testing.T) {
	tr := New(Config{})
	buildTree(tr)
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("reset kept spans")
	}
	buildTree(tr)
	if tr.Spans()[0].ID != 1 {
		t.Fatalf("reset did not rewind IDs: %d", tr.Spans()[0].ID)
	}
}
