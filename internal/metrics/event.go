package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The unified telemetry event stream. Every instrumented subsystem —
// simnet links, tcpsim connections, the SunRPC layer, the RAID array,
// iSCSI sessions, the NFS server, ext3 caches and the simulated CPUs —
// reports counter deltas as JSON-lines events stamped with virtual time
// and tagged by {experiment, stack, transport, client, ...}. The schema
// is documented in docs/METRICS.md; cmd/metrics summarizes and validates
// streams.

// Event kinds.
const (
	// KindSample carries counter deltas accumulated since the previous
	// sample from the same source (a closed measurement window).
	KindSample = "sample"
	// KindPoint carries instantaneous values (derived results, gauges).
	KindPoint = "point"
	// KindMark is a phase boundary with no payload beyond its tags.
	KindMark = "mark"
)

// Well-known subsystem names (the vocabulary is open; these are the ones
// the simulator emits — see docs/METRICS.md for each one's counters).
const (
	SubsysNet   = "net"   // simnet link counters
	SubsysTCP   = "tcp"   // tcpsim connection counters
	SubsysRPC   = "rpc"   // sunrpc client counters
	SubsysDisk  = "disk"  // blockdev/simdisk array counters
	SubsysISCSI = "iscsi" // iSCSI initiator/session counters
	SubsysNFS   = "nfs"   // NFS server per-procedure counters
	SubsysExt3  = "ext3"  // ext3 buffer-cache and journal counters
	SubsysCPU   = "cpu"   // simulated processor busy time
	SubsysRun   = "run"   // experiment harness marks and cell results
	SubsysBench = "bench" // host benchmark results (hostbench/baseline.jsonl)
	SubsysFleet = "fleet" // fluid background-cohort aggregates
	SubsysHist  = "hist"  // per-op latency histograms (log-spaced buckets)
	SubsysLock  = "lock"  // byte-range lock manager / SCSI reservation counters
	SubsysLease = "lease" // NFSv4 delegation (lease) counters
	SubsysGauge = "gauge" // per-station USE gauges from the health scraper
	SubsysAlert = "alert" // SLO burn-rate fire/resolve transitions
)

// Sampled-telemetry tag names. Above a cluster's telemetry fan-in, only a
// stratified sample of per-client sources is registered; each sampled
// source carries these tags so Summarize can re-weight its counters back
// to the full population (see docs/METRICS.md).
const (
	// TagSampled is "true" on events from a sampled (non-exhaustive)
	// per-client source.
	TagSampled = "sampled"
	// TagPopulation is the stratum's total client count.
	TagPopulation = "population"
	// TagSample is the stratum's sampled client count.
	TagSample = "sample"
)

// Tags is the string-to-string tag set attached to an event. Tag keys are
// a controlled vocabulary (experiment, stack, transport, client, workload,
// phase, plus experiment axes); see docs/METRICS.md.
type Tags map[string]string

// Event is one JSONL telemetry record. The zero value is invalid; use the
// Recorder (or fill every required field) and keep the stream append-only.
type Event struct {
	// T is the virtual time of the event in nanoseconds since the
	// emitting simulation began. Wall-clock emitters (the benchmark
	// harness) use 0.
	T int64 `json:"t"`
	// Subsys names the emitting subsystem (SubsysNet, SubsysDisk, ...).
	Subsys string `json:"subsys"`
	// Kind is the event kind: KindSample, KindPoint or KindMark.
	Kind string `json:"event"`
	// Tags identify the emitting context.
	Tags Tags `json:"tags,omitempty"`
	// Counters are monotonic counter deltas (sample events only).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Values are instantaneous measurements (point events only).
	Values map[string]float64 `json:"values,omitempty"`
}

// validate checks the event against the documented schema.
func (e Event) validate() error {
	if e.T < 0 {
		return fmt.Errorf("metrics: negative timestamp %d", e.T)
	}
	if e.Subsys == "" {
		return fmt.Errorf("metrics: missing subsys")
	}
	for k, v := range e.Tags {
		if k == "" || v == "" {
			return fmt.Errorf("metrics: empty tag key or value (%q=%q)", k, v)
		}
	}
	switch e.Kind {
	case KindSample:
		if len(e.Counters) == 0 {
			return fmt.Errorf("metrics: sample event with no counters")
		}
		if len(e.Values) != 0 {
			return fmt.Errorf("metrics: sample event carries values")
		}
	case KindPoint:
		if len(e.Values) == 0 {
			return fmt.Errorf("metrics: point event with no values")
		}
		if len(e.Counters) != 0 {
			return fmt.Errorf("metrics: point event carries counters")
		}
	case KindMark:
		if len(e.Counters) != 0 || len(e.Values) != 0 {
			return fmt.Errorf("metrics: mark event carries a payload")
		}
	default:
		return fmt.Errorf("metrics: unknown event kind %q", e.Kind)
	}
	for k := range e.Counters {
		if k == "" {
			return fmt.Errorf("metrics: empty counter name")
		}
	}
	for k := range e.Values {
		if k == "" {
			return fmt.Errorf("metrics: empty value name")
		}
	}
	return nil
}

// Encode validates the event and returns its canonical JSON line (no
// trailing newline): the bytes encoding/json's Marshal produces, map keys
// in sorted order, so identical events always encode to identical bytes —
// the property the determinism goldens rely on.
func (e Event) Encode() ([]byte, error) { return e.appendTo(nil) }

// appendTo validates e and appends its canonical line to b.
func (e Event) appendTo(b []byte) ([]byte, error) {
	if err := e.validate(); err != nil {
		return b, err
	}
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.T, 10)
	b = append(b, `,"subsys":`...)
	b = AppendString(b, e.Subsys)
	b = append(b, `,"event":`...)
	b = AppendString(b, e.Kind)
	var err error
	if len(e.Tags) > 0 {
		b = append(b, `,"tags":`...)
		b, _ = appendMap(b, e.Tags, appendStringValue)
	}
	if len(e.Counters) > 0 {
		b = append(b, `,"counters":`...)
		b, _ = appendMap(b, e.Counters, appendIntValue)
	}
	if len(e.Values) > 0 {
		b = append(b, `,"values":`...)
		if b, err = appendMap(b, e.Values, AppendFloat); err != nil {
			return b, fmt.Errorf("metrics: values: %w", err)
		}
	}
	return append(b, '}'), nil
}

// event parses one line strictly: unknown or repeated fields, a missing
// t, subsys or event, a value of the wrong type, and anything after the
// object are errors, so schema drift and stream corruption are caught at
// read time rather than silently dropping data. The event must then pass
// Validate.
func (s *Scanner) event(line []byte) (Event, error) {
	s.Reset(line)
	var e Event
	var seen uint32
	s.Object()
	for s.More() {
		switch s.Key() {
		case "t":
			s.Seen(&seen, 1<<0)
			e.T = s.Int()
		case "subsys":
			s.Seen(&seen, 1<<1)
			e.Subsys = s.String()
		case "event":
			s.Seen(&seen, 1<<2)
			e.Kind = s.String()
		case "tags":
			s.Seen(&seen, 1<<3)
			e.Tags = scanMap(s, (*Scanner).String)
		case "counters":
			s.Seen(&seen, 1<<4)
			e.Counters = scanMap(s, (*Scanner).Int)
		case "values":
			s.Seen(&seen, 1<<5)
			e.Values = scanMap(s, (*Scanner).float)
		default:
			s.Unknown()
		}
	}
	s.Missing(seen, "t", "subsys", "event")
	if err := s.Finish(); err != nil {
		return Event{}, fmt.Errorf("metrics: bad event line: %w", err)
	}
	if err := e.validate(); err != nil {
		return Event{}, err
	}
	return e, nil
}

// scanMap reads an object of values of one type; a repeated key is an
// error.
func scanMap[V any](s *Scanner, val func(*Scanner) V) map[string]V {
	m := make(map[string]V)
	s.Object()
	for s.More() {
		k := s.Key()
		if _, dup := m[k]; dup {
			s.failf("duplicate key %q", k)
		}
		m[k] = val(s)
	}
	return m
}

// ReadEvents decodes and validates an entire JSONL stream. Blank lines are
// skipped; the first invalid line fails the read with its line number.
func ReadEvents(r io.Reader) ([]Event, error) {
	var s Scanner
	var out []Event
	err := EachLine(r, func(line []byte) error {
		e, err := s.event(line)
		out = append(out, e)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EachLine calls fn on every non-blank line of a JSONL stream, trimmed of
// surrounding white space, and stops at the first error, which it returns
// with the line's 1-based number.
func EachLine(r io.Reader, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	return sc.Err()
}

// sortedKeys returns m's keys in lexicographic order (deterministic
// iteration for rendering; the line codec sorts on its own).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
