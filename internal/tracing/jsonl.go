package tracing

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// JSONL span streams follow the same conventions as the metrics event
// stream (docs/METRICS.md) and share its line codec: one JSON object per
// line, canonical encoding (fixed field order, sorted tag keys), strict
// decoding (unknown, repeated or missing fields rejected), and validation
// on both encode and decode. Identical runs yield byte-identical streams
// — the determinism tests compare them byte for byte. docs/TRACING.md
// documents the schema.

// validate checks a span's numbers and layer against the schema: positive
// dense ID, a parent that precedes it (or 0 for roots), a non-negative
// client, a layer from the vocabulary and a well-ordered interval. Names
// (a non-empty op, non-empty tag keys and values) are checked where the
// Tracer resolves them, on encode and decode.
func (s Span) validate() error {
	if s.ID <= 0 {
		return fmt.Errorf("tracing: span id %d not positive", s.ID)
	}
	if s.Parent < 0 || s.Parent >= s.ID {
		return fmt.Errorf("tracing: span %d parent %d must be 0 or a preceding id", s.ID, s.Parent)
	}
	if s.Client < 0 {
		return fmt.Errorf("tracing: span %d client %d negative", s.ID, s.Client)
	}
	if !s.Layer.valid() {
		return fmt.Errorf("tracing: span %d layer %v not in vocabulary", s.ID, s.Layer)
	}
	if s.Start < 0 || s.End < s.Start {
		return fmt.Errorf("tracing: span %d interval [%v, %v) ill-formed", s.ID, s.Start, s.End)
	}
	return nil
}

// validate checks s and the names it carries in t.
func (t *Tracer) validate(s Span) error {
	if err := s.validate(); err != nil {
		return err
	}
	if t.Op(s) == "" {
		return fmt.Errorf("tracing: span %d has empty op", s.ID)
	}
	for i := s.tags; i != 0; i = t.tags[i].next {
		if t.names[t.tags[i].key] == "" || t.names[t.tags[i].val] == "" {
			return fmt.Errorf("tracing: span %d has empty tag key or value", s.ID)
		}
	}
	return nil
}

// pair is one resolved tag or Chrome arg.
type pair struct{ key, val string }

// appendPairs appends s's tags to dst, sorted by key.
func (t *Tracer) appendPairs(dst []pair, s Span) []pair {
	for i := s.tags; i != 0; i = t.tags[i].next {
		dst = append(dst, pair{t.names[t.tags[i].key], t.names[t.tags[i].val]})
	}
	slices.SortFunc(dst, func(a, b pair) int { return strings.Compare(a.key, b.key) })
	return dst
}

// appendObject appends pairs, sorted by key, as a JSON object of strings.
func appendObject(b []byte, pairs []pair) []byte {
	b = append(b, '{')
	for _, p := range pairs {
		b = metrics.AppendKey(b, p.key)
		b = metrics.AppendString(b, p.val)
	}
	return append(b, '}')
}

// appendSpan validates s and appends its canonical line (no newline) to b.
func (t *Tracer) appendSpan(b []byte, s Span) ([]byte, error) {
	if err := t.validate(s); err != nil {
		return b, err
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, s.ID, 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, s.Parent, 10)
	b = append(b, `,"client":`...)
	b = strconv.AppendInt(b, int64(s.Client), 10)
	b = append(b, `,"layer":`...)
	b = metrics.AppendString(b, s.Layer.String())
	b = append(b, `,"op":`...)
	b = metrics.AppendString(b, t.Op(s))
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, int64(s.Start), 10)
	b = append(b, `,"end_ns":`...)
	b = strconv.AppendInt(b, int64(s.End), 10)
	if s.tags != 0 {
		var arr [8]pair
		b = append(b, `,"tags":`...)
		b = appendObject(b, t.appendPairs(arr[:0], s))
	}
	return append(b, '}'), nil
}

// decode parses one JSONL line strictly: unknown, repeated or missing
// fields, values of the wrong type, trailing content and schema
// violations are errors. The span's names go into t.
func (t *Tracer) decode(sc *metrics.Scanner, line []byte) (Span, error) {
	sc.Reset(line)
	var s Span
	var seen uint32
	sc.Object()
	for sc.More() {
		switch sc.Key() {
		case "id":
			sc.Seen(&seen, 1<<0)
			s.ID = sc.Int()
		case "parent":
			sc.Seen(&seen, 1<<1)
			s.Parent = sc.Int()
		case "client":
			sc.Seen(&seen, 1<<2)
			c := sc.Int()
			if c != int64(int32(c)) {
				sc.Fail(fmt.Errorf("client %d out of range", c))
			}
			s.Client = int32(c)
		case "layer":
			sc.Seen(&seen, 1<<3)
			name := sc.String()
			l, ok := layerNamed(name)
			if !ok {
				sc.Fail(fmt.Errorf("layer %q not in vocabulary", name))
			}
			s.Layer = l
		case "op":
			sc.Seen(&seen, 1<<4)
			s.Op = t.intern(sc.String())
		case "start_ns":
			sc.Seen(&seen, 1<<5)
			s.Start = time.Duration(sc.Int())
		case "end_ns":
			sc.Seen(&seen, 1<<6)
			s.End = time.Duration(sc.Int())
		case "tags":
			sc.Seen(&seen, 1<<7)
			sc.Object()
			for sc.More() {
				k := sc.Key()
				if t.tag(s, k) != "" {
					sc.Fail(fmt.Errorf("duplicate tag %q", k))
				}
				t.addTag(&s, t.intern(k), t.intern(sc.String()))
			}
		default:
			sc.Unknown()
		}
	}
	sc.Missing(seen, "id", "parent", "client", "layer", "op", "start_ns", "end_ns")
	if err := sc.Finish(); err != nil {
		return Span{}, fmt.Errorf("tracing: %w", err)
	}
	if err := t.validate(s); err != nil {
		return Span{}, err
	}
	return s, nil
}

// WriteSpans appends t's committed spans to w, one canonical JSON line
// each.
func WriteSpans(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	var b []byte
	for _, s := range t.Spans() {
		var err error
		if b, err = t.appendSpan(b[:0], s); err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans parses a JSONL span stream, skipping blank lines, into a
// Tracer whose Spans are the stream's spans and which resolves their
// names. Errors carry 1-based line numbers.
func ReadSpans(r io.Reader) (*Tracer, error) {
	t := New(Config{})
	var sc metrics.Scanner
	err := metrics.EachLine(r, func(line []byte) error {
		s, err := t.decode(&sc, line)
		t.spans = append(t.spans, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
