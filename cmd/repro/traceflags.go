package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/tracing"
)

// Trace holds the -trace/-trace-sample/-trace-slow state for a sweep cmd.
// A nil *Trace (the flags were not offered) is inert: Tracer returns nil —
// the documented "tracing off" state every layer accepts — and Write does
// nothing, so cmds call both unconditionally.
type Trace struct {
	always bool
	path   string
	every  int64
	slow   time.Duration
	tracer *tracing.Tracer
	replay *tracing.Tracer
}

// TraceFlags registers -trace, -trace-sample and -trace-slow on fs and
// returns the Trace that drives them. Call Tracer after fs.Parse to build
// the tracer for the sweep config, and Write (after the sweep) to flush
// the spans. With always, the cmd exists to trace: Tracer never returns
// nil and -trace only says whether the spans are also kept as JSONL.
func TraceFlags(fs *flag.FlagSet, always bool) *Trace {
	t := &Trace{always: always}
	fs.StringVar(&t.path, "trace", "",
		"write per-op span trees to this JSONL file (see docs/TRACING.md)")
	fs.Int64Var(&t.every, "trace-sample", 1, "trace one op in every N")
	fs.DurationVar(&t.slow, "trace-slow", 0, "trace only ops at least this slow, e.g. 500us")
	return t
}

// Tracer validates the flags and returns the tracer they configure, or
// nil when tracing is off. Call once, after fs.Parse.
func (t *Trace) Tracer() (*tracing.Tracer, error) {
	if t == nil {
		return nil, nil
	}
	if t.path == "" && !t.always {
		if t.every != 1 || t.slow != 0 {
			return nil, fmt.Errorf("-trace-sample/-trace-slow require -trace")
		}
		return nil, nil
	}
	if t.every < 1 {
		return nil, fmt.Errorf("-trace-sample: %d must be at least 1", t.every)
	}
	if t.slow < 0 {
		return nil, fmt.Errorf("-trace-slow: %v must not be negative", t.slow)
	}
	t.tracer = tracing.New(tracing.Config{Every: t.every, Slow: t.slow})
	return t.tracer, nil
}

// Replay makes Write emit the spans of a stream read back by
// tracing.ReadSpans in place of the tracer's own (`trace -from old.jsonl
// -trace checked.jsonl`).
func (t *Trace) Replay(spans *tracing.Tracer) { t.replay = spans }

// Write flushes the recorded spans to the -trace file. Safe to call when
// tracing was off.
func (t *Trace) Write() error {
	if t == nil || t.tracer == nil || t.path == "" {
		return nil
	}
	spans := t.replay
	if spans == nil {
		spans = t.tracer
	}
	f, err := os.Create(t.path)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if err := tracing.WriteSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("-trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	return nil
}
