package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// JSON-lines trace codec: one Record per line, so synthesized traces can
// be exported, inspected, edited and replayed through the full protocol
// stacks (internal/replay) without regenerating them. The wire form uses
// integer nanoseconds so a round trip is exact.
//
//	{"at_ns":1000000,"client":0,"dir":42,"kind":"read"}
//
// A valid trace file is globally sorted by at_ns (the order Synthesize
// emits and the order a replay scheduler consumes); ReadJSONL rejects
// out-of-order, negative or malformed records with the offending line
// number.

// String names the kind the way the JSONL codec spells it.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// parseOpKind inverts OpKind.String.
func parseOpKind(s string) (OpKind, error) {
	switch s {
	case "read":
		return OpRead, nil
	case "write":
		return OpWrite, nil
	default:
		return 0, fmt.Errorf("trace: unknown op kind %q", s)
	}
}

// jsonRecord is the wire form of one Record.
type jsonRecord struct {
	AtNanos int64  `json:"at_ns"`
	Client  int    `json:"client"`
	Dir     int    `json:"dir"`
	Kind    string `json:"kind"`
}

// WriteJSONL encodes records as JSON lines in slice order.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range recs {
		if r.Kind != OpRead && r.Kind != OpWrite {
			return fmt.Errorf("trace: record %d has invalid kind %d", i, int(r.Kind))
		}
		jr := jsonRecord{AtNanos: r.At.Nanoseconds(), Client: r.Client, Dir: r.Dir, Kind: r.Kind.String()}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSON-lines trace, validating every record: fields
// must be non-negative, kinds known, and timestamps globally
// non-decreasing. Blank lines are skipped. Errors carry the 1-based line
// number.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var recs []Record
	var prev time.Duration
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.Trim(raw, " \t\r\n")) == 0 {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal(raw, &jr); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if jr.AtNanos < 0 {
			return nil, fmt.Errorf("trace: line %d: negative at_ns %d", line, jr.AtNanos)
		}
		if jr.Client < 0 {
			return nil, fmt.Errorf("trace: line %d: negative client %d", line, jr.Client)
		}
		if jr.Dir < 0 {
			return nil, fmt.Errorf("trace: line %d: negative dir %d", line, jr.Dir)
		}
		kind, err := parseOpKind(jr.Kind)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		at := time.Duration(jr.AtNanos)
		if at < prev {
			return nil, fmt.Errorf("trace: line %d: timestamp %v before previous %v (trace must be sorted)", line, at, prev)
		}
		prev = at
		recs = append(recs, Record{At: at, Client: jr.Client, Dir: jr.Dir, Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return recs, nil
}
