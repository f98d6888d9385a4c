package tracing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// TestDecodeRejectsHostileLines: lines encoding/json's Decoder let
// through. A closing delimiter after the object ends More's search for a
// next value, a case-folded key silently overrides the real one, and
// absent fields decode as zeros.
func TestDecodeRejectsHostileLines(t *testing.T) {
	for _, line := range []string{
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"read","start_ns":0,"end_ns":5}]`,
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"read","start_ns":0,"end_ns":5}}`,
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"read","start_ns":0,"end_ns":5,"LAYER":"disk"}`,
		`{"id":1,"op":"x","layer":"rpc"}`,
	} {
		if tr, err := ReadSpans(strings.NewReader(line)); err == nil {
			t.Errorf("decode accepted %s as %+v", line, tr.Spans())
		}
	}
}

// TestSpanHasNoPointers walks Span's fields: none may hold a pointer, so
// a span stream is one block the collector never scans and growing it
// writes no barriers.
func TestSpanHasNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Map,
			reflect.Slice, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Span", reflect.TypeOf(Span{}))
	if size := reflect.TypeOf(Span{}).Size(); size > 48 {
		t.Errorf("Span is %d bytes, want at most 48", size)
	}
}

// TestTracedOpAllocs: once the stream has room, a traced operation —
// root, tag, nested span, leaf record — allocates nothing.
func TestTracedOpAllocs(t *testing.T) {
	tr := New(Config{})
	op := func() {
		root := tr.BeginOp(0, LayerSyscall, "read", 2)
		tr.SetTag(root, "stack", "nfsv3")
		rpc := tr.Begin(us, LayerRPC, "READ")
		tr.Record(2*us, 3*us, LayerLink, "frame")
		tr.End(rpc, 4*us)
		tr.End(root, 5*us)
	}
	const runs = 100
	for cap(tr.Spans())-len(tr.Spans()) < 4*(runs+1) || cap(tr.tags)-len(tr.tags) < runs+1 {
		op()
	}
	if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
		t.Fatalf("a traced op allocates %v objects, want 0", allocs)
	}
}

// TestNamesResolvePerSpan records spans whose op names and tags all
// differ and reads each back through the tracer, after later spans have
// interned more names: every span resolves to its own name and tags.
func TestNamesResolvePerSpan(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 3; i++ {
		root := tr.BeginOp(time.Duration(i)*us, LayerSyscall, fmt.Sprint("op", i), i)
		tr.SetTag(root, "n", strconv.Itoa(i))
		tr.SetTag(root, fmt.Sprint("k", i), fmt.Sprint("v", i))
		tr.SetTag(root, "n", fmt.Sprint("n", i)) // replaces the first value
		leaf := tr.Record(time.Duration(i)*us, time.Duration(i)*us, LayerDisk, fmt.Sprint("leaf", i))
		tr.SetTag(leaf, "leaf", fmt.Sprint(i))
		tr.End(root, time.Duration(i+1)*us)
	}
	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6", len(spans))
	}
	for i := 0; i < 3; i++ {
		root, leaf := spans[2*i], spans[2*i+1]
		if got, want := tr.Op(root), fmt.Sprint("op", i); got != want {
			t.Errorf("root %d resolves to op %q, want %q", i, got, want)
		}
		if got, want := tr.Op(leaf), fmt.Sprint("leaf", i); got != want {
			t.Errorf("leaf %d resolves to op %q, want %q", i, got, want)
		}
		for k, want := range map[string]string{"n": fmt.Sprint("n", i), fmt.Sprint("k", i): fmt.Sprint("v", i), "leaf": ""} {
			if got := tr.tag(root, k); got != want {
				t.Errorf("root %d tag %s = %q, want %q", i, k, got, want)
			}
		}
		if got, want := tr.tag(leaf, "leaf"), fmt.Sprint(i); got != want {
			t.Errorf("leaf %d tag = %q, want %q", i, got, want)
		}
		if got := tr.tag(leaf, "n"); got != "" {
			t.Errorf("leaf %d carries its root's tag n=%q", i, got)
		}
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want := `{"id":1,"parent":0,"client":0,"layer":"syscall","op":"op0","start_ns":0,"end_ns":1000,"tags":{"k0":"v0","n":"n0"}}
{"id":2,"parent":1,"client":0,"layer":"disk","op":"leaf0","start_ns":0,"end_ns":0,"tags":{"leaf":"0"}}
{"id":3,"parent":0,"client":1,"layer":"syscall","op":"op1","start_ns":1000,"end_ns":2000,"tags":{"k1":"v1","n":"n1"}}
{"id":4,"parent":3,"client":1,"layer":"disk","op":"leaf1","start_ns":1000,"end_ns":1000,"tags":{"leaf":"1"}}
{"id":5,"parent":0,"client":2,"layer":"syscall","op":"op2","start_ns":2000,"end_ns":3000,"tags":{"k2":"v2","n":"n2"}}
{"id":6,"parent":5,"client":2,"layer":"disk","op":"leaf2","start_ns":2000,"end_ns":2000,"tags":{"leaf":"2"}}
`
	if buf.String() != want {
		t.Fatalf("stream:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestSlowDiscardDropsTags: the tags of operations discarded by slow-op
// sampling leave the arena with them.
func TestSlowDiscardDropsTags(t *testing.T) {
	tr := New(Config{Slow: 50 * us})
	for i := 0; i < 10; i++ {
		fast := tr.BeginOp(0, LayerSyscall, "stat", 0)
		tr.SetTag(fast, "stack", "iscsi")
		tr.End(fast, us)
	}
	if len(tr.tags) != 1 || len(tr.Spans()) != 0 {
		t.Fatalf("ten discarded ops left %d spans and %d arena slots, want 0 and 1", len(tr.Spans()), len(tr.tags))
	}
}

// refSpan is the span wire schema as encoding/json sees it: the
// reference the line codec is held to.
type refSpan struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Client int               `json:"client"`
	Layer  string            `json:"layer"`
	Op     string            `json:"op"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Tags   map[string]string `json:"tags,omitempty"`
}

// resolve returns s with its names, as the reference sees it.
func resolve(t *Tracer, s Span) refSpan {
	r := refSpan{ID: s.ID, Parent: s.Parent, Client: int(s.Client), Layer: s.Layer.String(),
		Op: t.Op(s), Start: s.Start, End: s.End}
	for _, p := range t.appendPairs(nil, s) {
		if r.Tags == nil {
			r.Tags = map[string]string{}
		}
		r.Tags[p.key] = p.val
	}
	return r
}

// referenceChrome is the encoding/json Chrome export the hand-written
// one replaced.
func referenceChrome(t *Tracer) ([]byte, error) {
	type chromeEvent struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat,omitempty"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	tracks := make(map[[2]int]string)
	events := make([]chromeEvent, 0)
	for _, s := range t.Spans() {
		r := resolve(t, s)
		tid := s.layerTID()
		tracks[[2]int{r.Client, tid}] = r.Layer
		args := map[string]string{"id": strconv.FormatInt(s.ID, 10)}
		if s.Parent != 0 {
			args["parent"] = strconv.FormatInt(s.Parent, 10)
		}
		for k, v := range r.Tags {
			args[k] = v
		}
		events = append(events, chromeEvent{Name: r.Op, Cat: r.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: r.Client, TID: tid, Args: args})
	}
	keys := make([][2]int, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	meta := make([]chromeEvent, 0)
	seen := map[int]bool{}
	for _, k := range keys {
		if !seen[k[0]] {
			seen[k[0]] = true
			meta = append(meta, chromeEvent{Name: "process_name", Ph: "M", PID: k[0],
				Args: map[string]string{"name": "client " + strconv.Itoa(k[0])}})
		}
		meta = append(meta, chromeEvent{Name: "thread_name", Ph: "M", PID: k[0], TID: k[1],
			Args: map[string]string{"name": tracks[k]}})
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{append(meta, events...), "ms"})
	return buf.Bytes(), err
}

// FuzzCodecMatchesEncodingJSON holds the span codec and the Chrome
// export to encoding/json. Spans recorded from the inputs encode to the
// bytes json.Marshal produces for their resolved form, and decode back to
// it; the Chrome export equals the encoding/json one. Any line the
// scanner accepts, encoding/json accepts too and decodes to the same
// span: the scanner may be stricter, never looser.
func FuzzCodecMatchesEncodingJSON(f *testing.F) {
	for _, line := range []string{
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"read","start_ns":0,"end_ns":5}`,
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"read","start_ns":0,"end_ns":5}}`,
		`{"id":1,"parent":0,"client":0,"layer":"syscall","op":"read","start_ns":0,"end_ns":5,"LAYER":"disk"}`,
		`{"id":1,"op":"x","layer":"rpc"}`,
		`{"end_ns":9,"start_ns":1,"op":"<a&b>","layer":"cpu.server","client":7,"parent":1,"id":2,"tags":{"stack":"nfsv3"," ":"é"}}`,
		` {"id":3,"parent":0,"client":0,"layer":"disk","op":"😀","start_ns":0,"end_ns":0,"tags":{}} `,
	} {
		f.Add([]byte(line), "read", "stack", "nfsv3", int64(1500), int64(3))
	}
	f.Add([]byte(`{}`), "<op & \"x\">", "k\x01", "\xff ", int64(1), int64(1e15))
	f.Add([]byte(`{}`), "a", "id", "override", int64(999), int64(0))
	f.Fuzz(func(t *testing.T, line []byte, op, key, val string, at, dur int64) {
		if at < 0 || dur < 0 || at > 1<<52 || dur > 1<<52 {
			return
		}
		tr := New(Config{})
		start, end := time.Duration(at), time.Duration(at+dur)
		root := tr.BeginOp(start, LayerSyscall, op, int(dur%5))
		tr.SetTag(root, key, val)
		tr.SetTag(root, "stack", val)
		rpc := tr.Begin(start, LayerRPC, key)
		tr.SetTag(rpc, val, op)
		tr.Record(start+time.Duration(dur/3), end, LayerDisk, val)
		tr.End(rpc, end)
		tr.End(root, end)
		for _, s := range tr.Spans() {
			got, err := tr.appendSpan(nil, s)
			if err != nil {
				continue // an empty name: the reference has no schema to check
			}
			r := resolve(tr, s)
			want, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("appendSpan   %s\njson.Marshal %s", got, want)
			}
			back, err := ReadSpans(bytes.NewReader(got))
			if err != nil {
				t.Fatalf("decode rejects its own encoding %s: %v", got, err)
			}
			var ref refSpan
			if err := json.Unmarshal(got, &ref); err != nil {
				t.Fatal(err)
			}
			if b := resolve(back, back.Spans()[0]); !reflect.DeepEqual(b, ref) {
				t.Fatalf("%s: decode %+v, encoding/json %+v", got, b, ref)
			}
			if utf8.ValidString(op) && utf8.ValidString(key) && utf8.ValidString(val) && !reflect.DeepEqual(ref, r) {
				t.Fatalf("round trip changed %+v into %+v", r, ref)
			}
		}
		var chrome bytes.Buffer
		if err := WriteChrome(&chrome, tr); err != nil {
			t.Fatal(err)
		}
		want, err := referenceChrome(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chrome.Bytes(), want) {
			t.Fatalf("WriteChrome\n%s\nencoding/json\n%s", chrome.Bytes(), want)
		}

		back, err := ReadSpans(bytes.NewReader(line))
		if err != nil || len(back.Spans()) != 1 {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var ref refSpan
		if err := dec.Decode(&ref); err != nil {
			t.Fatalf("encoding/json rejects %q, which the scanner accepted: %v", line, err)
		}
		if len(ref.Tags) == 0 {
			ref.Tags = nil
		}
		if got := resolve(back, back.Spans()[0]); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%q: scanner %+v, encoding/json %+v", line, got, ref)
		}
	})
}
