package metrics

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Sink serializes events onto one JSONL destination. All recorders
// derived from a sink share it, so a whole sweep lands in a single
// ordered stream. A nil *Sink (and the nil *Recorder it yields) is a
// valid no-op: un-instrumented runs pay one pointer test per call site.
type Sink struct {
	mu   sync.Mutex
	w    io.Writer
	err  error
	line []byte // reused encode buffer
}

// NewSink wraps w. Pass nil to get a no-op sink.
func NewSink(w io.Writer) *Sink {
	if w == nil {
		return nil
	}
	return &Sink{w: w}
}

// OpenFileSink creates (or truncates) a JSONL stream at path and returns
// the sink plus its close function. An empty path yields a nil sink and a
// no-op closer, so callers can wire a -metrics flag unconditionally.
// Writes are buffered (one syscall per flush, not per event); the close
// function flushes before closing and must be called on success paths.
func OpenFileSink(path string) (*Sink, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics: %w", err)
	}
	bw := bufio.NewWriter(f)
	closeFn := func() error {
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return NewSink(bw), closeFn, nil
}

// emit validates and writes one event. The first write error sticks and
// suppresses further output.
func (s *Sink) emit(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := e.appendTo(s.line[:0])
	if err == nil {
		s.line = append(b, '\n')
		_, err = s.w.Write(s.line)
	}
	if err != nil {
		s.err = err
	}
}

// fail makes err the sink's error unless it has one already; like a write
// error, it suppresses further output.
func (s *Sink) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Err reports the first write, validation or counter error, if any.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// source is one registered counter source: a closure over a subsystem's
// cumulative counters plus the values seen at the previous sample.
type source struct {
	subsys string
	tags   Tags
	fn     func() map[string]int64
	last   map[string]int64
}

// Recorder stamps events with a tag context and samples registered
// counter sources. Recorders are cheap views over a shared Sink: derive
// one per experiment cell with With, register that cell's testbed
// sources, and Sample at measurement boundaries. All methods are safe on
// a nil receiver (the un-instrumented path).
type Recorder struct {
	sink    *Sink
	tags    Tags
	sources []*source
}

// NewRecorder builds a recorder over sink carrying base tags. A nil sink
// yields a nil (no-op) recorder.
func NewRecorder(sink *Sink, base Tags) *Recorder {
	if sink == nil {
		return nil
	}
	return &Recorder{sink: sink, tags: cloneTags(base)}
}

// With derives a recorder whose events additionally carry extra tags.
// The derived recorder has its own (empty) source registry.
func (r *Recorder) With(extra Tags) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{sink: r.sink, tags: mergeTags(r.tags, extra)}
}

// Emit writes one event with merged tags at virtual time t.
func (r *Recorder) Emit(t time.Duration, subsys, kind string, extra Tags,
	counters map[string]int64, values map[string]float64) {
	if r == nil {
		return
	}
	r.sink.emit(Event{
		T:        int64(t),
		Subsys:   subsys,
		Kind:     kind,
		Tags:     mergeTags(r.tags, extra),
		Counters: counters,
		Values:   values,
	})
}

// Point emits instantaneous values (derived results, gauges).
func (r *Recorder) Point(t time.Duration, subsys string, extra Tags, values map[string]float64) {
	r.Emit(t, subsys, KindPoint, extra, nil, values)
}

// Mark emits a phase boundary under SubsysRun (by convention a
// {"phase": ...} tag names the boundary).
func (r *Recorder) Mark(t time.Duration, extra Tags) {
	r.Emit(t, SubsysRun, KindMark, extra, nil, nil)
}

// Register adds a counter source: fn returns the source's cumulative
// counters, and each Sample emits the deltas accumulated since the
// previous one. Registration order is emission order, so deterministic
// simulations produce byte-identical streams.
func (r *Recorder) Register(subsys string, extra Tags, fn func() map[string]int64) {
	if r == nil {
		return
	}
	r.sources = append(r.sources, &source{subsys: subsys, tags: extra, fn: fn})
}

// Sample polls every registered source and emits one sample event per
// source whose counters moved since the previous sample, stamped at t.
// Counters only grow: a source rebuilt mid-run (a cold-cache remount
// rebuilding a protocol client) carries its predecessor's totals forward.
// A counter observed below its previous value is the sink's error, and the
// stream ends there rather than carry a wrong delta.
func (r *Recorder) Sample(t time.Duration) {
	if r == nil {
		return
	}
	for _, s := range r.sources {
		cur := s.fn()
		delta := make(map[string]int64, len(cur))
		for k, v := range cur {
			if v < s.last[k] {
				r.sink.fail(fmt.Errorf("metrics: %s counter %q fell from %d to %d at t=%d", s.subsys, k, s.last[k], v, t))
				return
			}
			if d := v - s.last[k]; d != 0 {
				delta[k] = d
			}
		}
		if s.last == nil {
			s.last = make(map[string]int64, len(cur))
		}
		for k, v := range cur {
			s.last[k] = v
		}
		if len(delta) == 0 {
			continue
		}
		r.Emit(t, s.subsys, KindSample, s.tags, delta, nil)
	}
}

// cloneTags copies t (nil stays nil).
func cloneTags(t Tags) Tags {
	if t == nil {
		return nil
	}
	out := make(Tags, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// mergeTags overlays extra on base into a fresh map.
func mergeTags(base, extra Tags) Tags {
	if len(base) == 0 && len(extra) == 0 {
		return nil
	}
	out := make(Tags, len(base)+len(extra))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}
