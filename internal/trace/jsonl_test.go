package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestJSONLRoundTrip encodes a synthesized trace and decodes it back
// exactly (the codec is the interchange format for the replay engine).
func TestJSONLRoundTrip(t *testing.T) {
	p := EECS()
	p.Duration = 5 * time.Second
	if testing.Short() {
		p.Duration = time.Second
	}
	recs := Synthesize(p)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, back) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(recs), len(back))
	}
}

// TestReadJSONLRejectsMalformed checks the validator against the failure
// modes a hand-edited or corrupted trace file exhibits.
func TestReadJSONLRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{"at_ns":0,"client":0`,
		"unknown kind":    `{"at_ns":0,"client":0,"dir":0,"kind":"fsync"}`,
		"negative at":     `{"at_ns":-5,"client":0,"dir":0,"kind":"read"}`,
		"negative client": `{"at_ns":0,"client":-1,"dir":0,"kind":"read"}`,
		"negative dir":    `{"at_ns":0,"client":0,"dir":-3,"kind":"write"}`,
		"out of order": `{"at_ns":1000,"client":0,"dir":0,"kind":"read"}
{"at_ns":999,"client":1,"dir":1,"kind":"write"}`,
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestReadJSONLSkipsBlankLines verifies tolerant handling of trailing
// newlines and spacer lines.
func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"at_ns":0,"client":0,"dir":7,"kind":"read"}` + "\n\n  \n" +
		`{"at_ns":2000,"client":1,"dir":7,"kind":"write"}` + "\n\n"
	recs, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{At: 0, Client: 0, Dir: 7, Kind: OpRead},
		{At: 2 * time.Microsecond, Client: 1, Dir: 7, Kind: OpWrite},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("got %+v want %+v", recs, want)
	}
}

// TestOpKindStringParse checks the codec's kind spelling both ways.
func TestOpKindStringParse(t *testing.T) {
	for _, k := range []OpKind{OpRead, OpWrite} {
		got, err := parseOpKind(k.String())
		if err != nil || got != k {
			t.Errorf("parseOpKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := parseOpKind("readdirplus"); err == nil {
		t.Error("parseOpKind accepted unknown kind")
	}
}

// FuzzReadJSONL checks the parser never panics and that every trace it
// accepts is valid (sorted, non-negative, known kinds) and round-trips
// exactly through WriteJSONL.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"at_ns":0,"client":0,"dir":0,"kind":"read"}`)
	f.Add(`{"at_ns":1000,"client":3,"dir":99,"kind":"write"}` + "\n" +
		`{"at_ns":1000,"client":0,"dir":12,"kind":"read"}`)
	f.Add(`{"at_ns":5,"client":0,"dir":0,"kind":"read"}` + "\n" +
		`{"at_ns":4,"client":0,"dir":0,"kind":"read"}`)
	f.Add(`{"at_ns":-1,"client":0,"dir":0,"kind":"read"}`)
	f.Add("not json at all")
	f.Add("\n\n")
	f.Fuzz(func(t *testing.T, s string) {
		recs, err := ReadJSONL(strings.NewReader(s))
		if err != nil {
			return
		}
		var prev time.Duration
		for i, r := range recs {
			if r.At < prev {
				t.Fatalf("record %d out of order: %v < %v", i, r.At, prev)
			}
			prev = r.At
			if r.At < 0 || r.Client < 0 || r.Dir < 0 {
				t.Fatalf("record %d has negative field: %+v", i, r)
			}
			if r.Kind != OpRead && r.Kind != OpWrite {
				t.Fatalf("record %d has invalid kind: %+v", i, r)
			}
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(recs, back) {
			t.Fatalf("round trip changed trace: %d vs %d records", len(recs), len(back))
		}
	})
}
