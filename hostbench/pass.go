package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// A pass is the unit of work of a workload: fixed inputs, fixed work,
// run as often as the time budget allows. Its timed regions are what
// pass_ms and the allocation deltas cover; everything else a pass does
// (building cells, preparing files, flattening results) is untimed. Every
// pass of a workload has the same regions in the same order.

// simValue is one simulated number a pass produced. Simulated numbers
// repeat exactly, so they are compared with ==.
type simValue struct {
	key string
	val float64
}

// pass carries one pass's inputs in and its measurements out.
type pass struct {
	seed int64
	// log and rec are nil in the untraced run: no span is recorded, no
	// client is decorated and no recorder is attached.
	log *spanLog
	rec *metrics.Recorder
	// tee, in the traced run, is the stream under rec: a workload with an
	// event stream of its own copies it there so its counters are counted.
	tee io.Writer
	// profiled labels the timed regions for the CPU profile.
	profiled bool
	// heap, when set, folds the timed regions' allocations by layer.
	heap *heapFold

	regions      []float64     // host wall time of each timed region, ms
	allocBytes   uint64        // TotalAlloc delta over them
	allocObjects uint64        // Mallocs delta over them
	sysBytes     uint64        // MemStats.Sys when the last one ended
	virtual      time.Duration // simulated time the results report
	// telemetrySpans sizes the simulator's own span stream when the
	// workload attaches a tracer (observed).
	telemetrySpans int
	pending        []pendingSim
	checks, fails  int
	failures       []string
}

type pendingSim struct {
	prefix string
	v      any
}

var (
	timedCtx   = pprof.WithLabels(context.Background(), pprof.Labels("region", "timed"))
	untimedCtx = pprof.WithLabels(context.Background(), pprof.Labels("region", "untimed"))
)

// region runs fn as a timed region. A forced collection first puts the
// collector in the same phase at every region start, which takes most of
// the pass-to-pass jitter out of the allocation-heavy workloads.
func (p *pass) region(fn func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if p.heap != nil {
		// Everything allocated since the collection above, the snapshot's
		// own storage included, is in both the MemStats delta and the
		// profile delta.
		p.heap.begin()
	}
	if p.profiled {
		pprof.SetGoroutineLabels(timedCtx)
	}
	start := time.Now()
	err := fn()
	p.regions = append(p.regions, float64(time.Since(start))/1e6)
	if p.profiled {
		pprof.SetGoroutineLabels(untimedCtx)
	}
	runtime.ReadMemStats(&after)
	if p.heap != nil {
		runtime.GC() // publishes the region's allocations to the profile
		p.heap.end()
	}
	p.allocBytes += after.TotalAlloc - before.TotalAlloc
	p.allocObjects += after.Mallocs - before.Mallocs
	p.sysBytes = after.Sys
	return err
}

// span runs fn inside a named host-time span (traced run only).
func (p *pass) span(name string, fn func() error) error {
	if p.log == nil {
		return fn()
	}
	s := p.log.begin(name)
	err := fn()
	p.log.end(s)
	return err
}

// timedSpan runs fn as a timed region of its own inside a span of that
// name, and names the span in any error.
func (p *pass) timedSpan(name string, fn func() error) error {
	err := p.region(func() error { return p.span(name, fn) })
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// ops returns the syscall surface a step driver should use for c: the
// client itself, or in the traced run a decorator that records one span
// per syscall.
func (p *pass) ops(c *testbed.Client) workload.Ops {
	if p.log == nil {
		return c
	}
	return tracedOps{c: c, log: p.log}
}

// flush closes a testbed's telemetry window into the work-count recorder
// (traced run only).
func (p *pass) flush(tb *testbed.Testbed) {
	if p.rec != nil {
		tb.EmitSample()
	}
}

// sim queues a result for the simulated-value comparison. Flattening
// happens after the pass, outside every timed region.
func (p *pass) sim(prefix string, v any) {
	p.pending = append(p.pending, pendingSim{prefix, v})
}

// addVirtual adds simulated time to the pass's sim.virtual_s_per_pass.
func (p *pass) addVirtual(d time.Duration) { p.virtual += d }

// check records one correctness check.
func (p *pass) check(ok bool, format string, args ...any) {
	p.checks++
	if !ok {
		p.fails++
		if len(p.failures) < 20 {
			p.failures = append(p.failures, fmt.Sprintf(format, args...))
		}
	}
}

// simValues flattens the queued results in queue order.
func (p *pass) simValues() ([]simValue, error) {
	var out []simValue
	for _, ps := range p.pending {
		if err := flatten(&out, ps.prefix, reflect.ValueOf(ps.v)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// flatten appends every number reachable from v as "prefix.field[i]..."
// keys: struct fields by name, slices by index, maps by sorted key,
// booleans as 0/1. Strings, functions and unexported fields carry no
// simulated number and are skipped.
func flatten(out *[]simValue, prefix string, v reflect.Value) error {
	add := func(f float64) error {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("simulated value %s is %v", prefix, f)
		}
		*out = append(*out, simValue{prefix, f})
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return add(1)
		}
		return add(0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return add(float64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return add(float64(v.Uint()))
	case reflect.Float32, reflect.Float64:
		return add(v.Float())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return flatten(out, prefix, v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if err := flatten(out, prefix+"."+t.Field(i).Name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := flatten(out, fmt.Sprintf("%s[%d]", prefix, i), v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		type entry struct {
			name string
			val  reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			entries = append(entries, entry{fmt.Sprint(it.Key().Interface()), it.Value()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
		for _, e := range entries {
			if err := flatten(out, prefix+"["+e.name+"]", e.val); err != nil {
				return err
			}
		}
	}
	return nil
}
