package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// decode parses one line into a validated event.
func decode(line []byte) (Event, error) {
	var s Scanner
	return s.event(line)
}

// TestDecodeRejectsHostileLines: lines encoding/json's Decoder let
// through. A closing delimiter after the object ends More's search for a
// next value, and a case-folded key silently overrides the real one.
func TestDecodeRejectsHostileLines(t *testing.T) {
	for _, line := range []string{
		`{"t":0,"subsys":"run","event":"mark"}]`,
		`{"t":0,"subsys":"run","event":"mark"}}`,
		`{"t":0,"subsys":"run","event":"mark","SUBSYS":"net"}`,
	} {
		if e, err := decode([]byte(line)); err == nil {
			t.Errorf("decode accepted %s as %+v", line, e)
		}
	}
}

// TestDecodeRejectsMalformedLines covers the scanner's own strictness:
// repeated and missing fields, values of the wrong type, null, bad
// strings and bad numbers.
func TestDecodeRejectsMalformedLines(t *testing.T) {
	for _, line := range []string{
		``,
		`{`,
		`{}`,
		`[]`,
		`{"t":0,"subsys":"run","event":"mark","t":1}`,
		`{"subsys":"run","event":"mark"}`,
		`{"t":0,"event":"mark"}`,
		`{"t":0,"subsys":"run"}`,
		`{"t":null,"subsys":"run","event":"mark"}`,
		`{"t":0,"subsys":"run","event":"mark","tags":null}`,
		`{"t":1.5,"subsys":"run","event":"mark"}`,
		`{"t":1e3,"subsys":"run","event":"mark"}`,
		`{"t":01,"subsys":"run","event":"mark"}`,
		`{"t":-,"subsys":"run","event":"mark"}`,
		`{"t":99999999999999999999,"subsys":"run","event":"mark"}`,
		`{"t":"0","subsys":"run","event":"mark"}`,
		`{"t":0,"subsys":run,"event":"mark"}`,
		`{"t":0,"subsys":"run","event":"mark",}`,
		`{,"t":0,"subsys":"run","event":"mark"}`,
		`{"t":0 "subsys":"run","event":"mark"}`,
		`{"t":0,"subsys":"r\xffn","event":"mark"}`,
		`{"t":0,"subsys":"r\ud800n","event":"mark"}`,
		`{"t":0,"subsys":"r\qn","event":"mark"}`,
		"{\"t\":0,\"subsys\":\"r\tn\",\"event\":\"mark\"}",
		`{"t":0,"subsys":"run","event":"mark","tags":{"a":"b","a":"c"}}`,
		`{"t":0,"subsys":"net","event":"sample","counters":{"frames":1.5}}`,
		`{"t":0,"subsys":"run","event":"point","values":{"v":1e400}}`,
		`{"t":0,"subsys":"run","event":"point","values":{"v":.5}}`,
		`{"t":0,"subsys":"run","event":"point","values":{"v":1.}}`,
		`{"t":0,"subsys":"run","event":"point","values":{"v":1e}}`,
		`{"t":0,"subsys":"run","event":"mark"} x`,
	} {
		if e, err := decode([]byte(line)); err == nil {
			t.Errorf("decode accepted %q as %+v", line, e)
		}
	}
}

// TestScannerAcceptsCommittedStreams reads every committed JSONL event
// file: what CI's -validate steps and the goldens depend on.
func TestScannerAcceptsCommittedStreams(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "../../hostbench/baseline.jsonl")
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		events, err := ReadEvents(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: no events", p)
		}
		for i, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			want := referenceDecode(t, line)
			if !reflect.DeepEqual(events[i], want) {
				t.Fatalf("%s line %d: scanner %+v, encoding/json %+v", p, i+1, events[i], want)
			}
		}
	}
}

// referenceDecode decodes line with encoding/json, unknown fields
// rejected.
func referenceDecode(t *testing.T, line []byte) Event {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var e Event
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("encoding/json rejects %q, which the scanner accepted: %v", line, err)
	}
	return e
}

// FuzzCodecMatchesEncodingJSON holds the line codec to encoding/json. Any
// valid event built from the inputs encodes to the bytes json.Marshal
// produces (a NaN or an infinity is an error under both) and decodes back
// to what json.Unmarshal makes of those bytes. Any line the scanner
// accepts, encoding/json accepts too and decodes to the same event: the
// scanner may be stricter, never looser.
func FuzzCodecMatchesEncodingJSON(f *testing.F) {
	seeds := []string{
		`{"t":0,"subsys":"run","event":"mark"}`,
		`{"t":0,"subsys":"run","event":"mark"}]`,
		`{"t":0,"subsys":"run","event":"mark","SUBSYS":"net"}`,
		`{"event":"point","subsys":"bench","t":0,"values":{"n":10,"value":3.9799254755}}`,
		` { "t" : 5 , "subsys" : "net" , "event" : "sample" , "counters" : { "frames" : -0 } } `,
		`{"t":0,"subsys":"\u0072\u00e9\ud83d\ude00\/","event":"mark","tags":{"a\u003c":"\u2028"}}`,
		`{"\u0074":0,"subsys":"run","event":"mark"}`,
		`{"t":1,"subsys":"gauge","event":"point","values":{"a":1E-7,"b":-2.5e+21,"c":0.000001,"d":1e-400}}`,
	}
	if paths, err := filepath.Glob("testdata/*.jsonl"); err == nil {
		for _, p := range paths {
			raw, _ := os.ReadFile(p)
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			seeds = append(seeds, lines[0], lines[len(lines)-1])
		}
	}
	for _, line := range seeds {
		f.Add([]byte(line), int64(7), "net", "nfsv3", int64(42), 1.5)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 999999e-12, 1e20, 1e21,
		123456789, 0.1, 1.0 / 3, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(-1)} {
		f.Add([]byte(`{}`), int64(0), "tcp", "<&>", int64(-1), x)
	}
	f.Add([]byte(`{}`), int64(math.MaxInt64), "a\"b\\c\n\x01\x7f", "\xff\xfe bad \u2028\u2029 é", int64(math.MinInt64), -1e300)
	f.Fuzz(func(t *testing.T, line []byte, ts int64, s1, s2 string, n int64, x float64) {
		events := []Event{
			{T: ts, Subsys: s1, Kind: KindSample, Tags: Tags{s1: s2, "stack": s2},
				Counters: map[string]int64{s2: n, "frames": n / 3}},
			{T: ts, Subsys: s2, Kind: KindPoint, Tags: Tags{"x": s1},
				Values: map[string]float64{s1: x, "half": x / 2, "v": float64(n)}},
			{T: ts, Subsys: s1, Kind: KindMark, Tags: Tags{s2: s1}},
		}
		for _, e := range events {
			if e.validate() != nil {
				continue
			}
			got, err := e.Encode()
			want, werr := json.Marshal(e)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%+v: Encode error %v, json.Marshal error %v", e, err, werr)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v:\n Encode       %s\n json.Marshal %s", e, got, want)
			}
			back, err := decode(got)
			if err != nil {
				t.Fatalf("decode rejects its own encoding %s: %v", got, err)
			}
			if ref := referenceDecode(t, got); !reflect.DeepEqual(back, ref) {
				t.Fatalf("%s: decode %+v, encoding/json %+v", got, back, ref)
			}
			if utf8.ValidString(e.Subsys) && utf8.ValidString(s1) && utf8.ValidString(s2) && !reflect.DeepEqual(back, e) {
				t.Fatalf("round trip changed %+v into %+v", e, back)
			}
		}
		e, err := decode(line)
		if err != nil {
			return
		}
		if ref := referenceDecode(t, line); !reflect.DeepEqual(e, ref) {
			t.Fatalf("%q: scanner %+v, encoding/json %+v", line, e, ref)
		}
	})
}
