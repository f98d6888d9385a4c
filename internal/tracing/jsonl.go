package tracing

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// JSONL span streams follow the same conventions as the metrics event
// stream (docs/METRICS.md): one JSON object per line, canonical encoding
// (fixed field order, sorted tag keys), strict decoding (unknown fields
// rejected), and validation on both encode and decode. Identical runs
// yield byte-identical streams — the determinism tests compare them
// byte for byte. docs/TRACING.md documents the schema.

// Validate checks a span against the schema: positive dense ID, a parent
// that precedes it (or 0 for roots), a layer from the vocabulary, a
// non-empty op, and a well-ordered interval.
func (s Span) Validate() error {
	if s.ID <= 0 {
		return fmt.Errorf("tracing: span id %d not positive", s.ID)
	}
	if s.Parent < 0 || s.Parent >= s.ID {
		return fmt.Errorf("tracing: span %d parent %d must be 0 or a preceding id", s.ID, s.Parent)
	}
	if s.Client < 0 {
		return fmt.Errorf("tracing: span %d client %d negative", s.ID, s.Client)
	}
	if !validLayer[s.Layer] {
		return fmt.Errorf("tracing: span %d layer %q not in vocabulary", s.ID, s.Layer)
	}
	if s.Op == "" {
		return fmt.Errorf("tracing: span %d has empty op", s.ID)
	}
	if s.Start < 0 || s.End < s.Start {
		return fmt.Errorf("tracing: span %d interval [%v, %v) ill-formed", s.ID, s.Start, s.End)
	}
	for k, v := range s.Tags {
		if k == "" || v == "" {
			return fmt.Errorf("tracing: span %d has empty tag key or value", s.ID)
		}
	}
	return nil
}

// encode renders one span as its canonical JSON line (no trailing
// newline). Map keys sort, so identical spans encode identically.
func encode(s Span) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// decode parses one JSONL line strictly: unknown fields, trailing content
// and schema violations are errors.
func decode(line []byte) (Span, error) {
	var s Span
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Span{}, fmt.Errorf("tracing: %w", err)
	}
	if dec.More() {
		return Span{}, fmt.Errorf("tracing: trailing content after span object")
	}
	if err := s.Validate(); err != nil {
		return Span{}, err
	}
	return s, nil
}

// WriteSpans appends spans to w, one canonical JSON line each.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		b, err := encode(s)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans parses a JSONL span stream, skipping blank lines. Errors carry
// 1-based line numbers.
func ReadSpans(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var spans []Span
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		s, err := decode(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}
