package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func validEvent() Event {
	return Event{
		T:        1234,
		Subsys:   SubsysNet,
		Kind:     KindSample,
		Tags:     Tags{"experiment": "table4", "stack": "iscsi"},
		Counters: map[string]int64{"frames": 2, "bytes_sent": 128},
	}
}

func TestEventRoundTrip(t *testing.T) {
	events := []Event{
		validEvent(),
		{T: 0, Subsys: SubsysBench, Kind: KindPoint,
			Tags:   Tags{"bench": "BenchmarkX", "metric": "ratio"},
			Values: map[string]float64{"value": 1.5, "n": 3}},
		{T: 99, Subsys: SubsysRun, Kind: KindMark, Tags: Tags{"phase": "begin"}},
	}
	var buf bytes.Buffer
	sink := NewSink(&buf)
	for _, e := range events {
		sink.emit(e)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestEventEncodeDeterministic(t *testing.T) {
	a, err := validEvent().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := validEvent().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("identical events encoded differently:\n%s\n%s", a, b)
	}
}

func TestEventValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Event)
	}{
		{"negative time", func(e *Event) { e.T = -1 }},
		{"missing subsys", func(e *Event) { e.Subsys = "" }},
		{"unknown kind", func(e *Event) { e.Kind = "gauge" }},
		{"sample without counters", func(e *Event) { e.Counters = nil }},
		{"sample with values", func(e *Event) { e.Values = map[string]float64{"x": 1} }},
		{"empty tag key", func(e *Event) { e.Tags[""] = "v" }},
		{"empty tag value", func(e *Event) { e.Tags["k"] = "" }},
		{"empty counter name", func(e *Event) { e.Counters[""] = 1 }},
	}
	for _, tc := range cases {
		e := validEvent()
		tc.mut(&e)
		if err := e.validate(); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	if err := (Event{T: 1, Subsys: SubsysRun, Kind: KindMark,
		Counters: map[string]int64{"x": 1}}).validate(); err == nil {
		t.Error("mark with payload: validation passed, want error")
	}
	if err := (Event{T: 1, Subsys: SubsysRun, Kind: KindPoint}).validate(); err == nil {
		t.Error("point without values: validation passed, want error")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := decode([]byte(`{"t":1,"subsys":"net","event":"mark","extra":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestDecodeRejectsTrailingContent(t *testing.T) {
	line := `{"t":1,"subsys":"net","event":"mark"}{"t":2,"subsys":"net","event":"sample","counters":{"frames":9}}`
	if _, err := decode([]byte(line)); err == nil {
		t.Fatal("concatenated events accepted; second event would be silently dropped")
	}
}

func TestReadEventsReportsLineNumbers(t *testing.T) {
	in := `{"t":1,"subsys":"net","event":"mark"}` + "\n\nnot json\n"
	_, err := ReadEvents(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-3 error, got %v", err)
	}
}

func TestRecorderSampleDeltasAndReset(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	rec := NewRecorder(sink, Tags{"experiment": "x"})
	cur := map[string]int64{"calls": 5}
	rec.Register(SubsysRPC, Tags{"client": "0"}, func() map[string]int64 { return cur })

	rec.Sample(time.Duration(10))
	cur = map[string]int64{"calls": 8}
	rec.Sample(time.Duration(20))
	// No movement: no event.
	rec.Sample(time.Duration(30))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	// A counter below its previous value (a source rebuilt without carrying
	// its totals forward) is the sink's error, and nothing more is written.
	cur = map[string]int64{"calls": 2}
	rec.Sample(time.Duration(40))
	if err := sink.Err(); err == nil || !strings.Contains(err.Error(), `"calls" fell from 8 to 2`) {
		t.Fatalf("a counter that fell: sink error %v", err)
	}
	cur = map[string]int64{"calls": 20}
	rec.Sample(time.Duration(50))

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []int64
	for _, e := range events {
		deltas = append(deltas, e.Counters["calls"])
	}
	want := []int64{5, 3}
	if !reflect.DeepEqual(deltas, want) {
		t.Fatalf("deltas = %v, want %v", deltas, want)
	}
	for _, e := range events {
		if e.Tags["experiment"] != "x" || e.Tags["client"] != "0" {
			t.Fatalf("tags not merged: %+v", e.Tags)
		}
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *Recorder
	rec = rec.With(Tags{"a": "b"})
	rec.Register(SubsysNet, nil, func() map[string]int64 { return nil })
	rec.Sample(0)
	rec.Mark(0, nil)
	rec.Point(0, SubsysRun, nil, map[string]float64{"v": 1})
	var sink *Sink
	sink.emit(validEvent())
	if sink.Err() != nil {
		t.Fatal("nil sink not inert")
	}
	if NewRecorder(nil, nil) != nil {
		t.Fatal("recorder over nil sink should be nil")
	}
}

func TestOpenFileSinkEmptyPath(t *testing.T) {
	sink, closeFn, err := OpenFileSink("")
	if err != nil || sink != nil {
		t.Fatalf("empty path: sink=%v err=%v", sink, err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	n := NetStats{Messages: 1, Frames: 2, BytesSent: 3, BytesRecv: 4, Retransmits: 5, Dropped: 6}
	if got := n.Counters()["bytes_recv"]; got != 4 {
		t.Fatalf("net counters: %v", n.Counters())
	}
	d := DiskStats{Reads: 1, Writes: 2, BlocksRead: 3, BlocksWrit: 4, Seeks: 5}
	if got := d.Counters()["blocks_written"]; got != 4 {
		t.Fatalf("disk counters: %v", d.Counters())
	}
}
