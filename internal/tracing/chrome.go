package tracing

import (
	"bufio"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Chrome trace_event export: spans render as complete ("ph":"X") events in
// the Trace Event Format that Perfetto and chrome://tracing load directly.
// Each client becomes a process; each layer becomes a named thread track
// inside it, ordered client-to-platter, so one operation reads as a
// waterfall across the protocol stack.

// chromeEvent is one trace_event object. Timestamps and durations are
// microseconds (the format's unit), kept as float64 so sub-microsecond
// virtual intervals survive; an empty Cat (metadata events) and a zero
// Dur are left out. Every event has args: a span its id, metadata a name.
type chromeEvent struct {
	Name string
	Cat  string
	Ph   string
	TS   float64
	Dur  float64
	PID  int
	TID  int
	Args []pair // sorted by key
}

// appendTo appends e as one JSON object.
func (e *chromeEvent) appendTo(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = metrics.AppendString(b, e.Name)
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = metrics.AppendString(b, e.Cat)
	}
	b = append(b, `,"ph":`...)
	b = metrics.AppendString(b, e.Ph)
	// Virtual times are finite, so neither float can fail to encode.
	b = append(b, `,"ts":`...)
	b, _ = metrics.AppendFloat(b, e.TS)
	if e.Dur != 0 {
		b = append(b, `,"dur":`...)
		b, _ = metrics.AppendFloat(b, e.Dur)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.PID), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.TID), 10)
	b = append(b, `,"args":`...)
	b = appendObject(b, e.Args)
	return append(b, '}')
}

// chromeArgs returns s's tags plus its id and parent (0 for a root is
// left out), sorted by key; a tag named id or parent wins.
func (t *Tracer) chromeArgs(dst []pair, s Span) []pair {
	dst = t.appendPairs(dst, s)
	add := func(key string, v int64) {
		i, found := slices.BinarySearchFunc(dst, key, func(p pair, k string) int {
			return strings.Compare(p.key, k)
		})
		if !found {
			dst = slices.Insert(dst, i, pair{key, strconv.FormatInt(v, 10)})
		}
	}
	add("id", s.ID)
	if s.Parent != 0 {
		add("parent", s.Parent)
	}
	return dst
}

// WriteChrome renders t's committed spans as Chrome trace_event JSON.
// Output is deterministic: metadata events come first (sorted by pid then
// tid), followed by one complete event per span in stream order.
func WriteChrome(w io.Writer, t *Tracer) error {
	spans := t.Spans()
	// The layers seen per client, one bit per layer.
	tracks := make(map[int]uint32)
	for _, s := range spans {
		tracks[int(s.Client)] |= 1 << s.layerTID()
	}
	pids := make([]int, 0, len(tracks))
	for pid := range tracks {
		pids = append(pids, pid)
	}
	slices.Sort(pids)

	bw := bufio.NewWriter(w)
	b := []byte(`{"traceEvents":[`)
	n := 0
	event := func(e *chromeEvent) error {
		if n++; n > 1 {
			b = append(b, ',')
		}
		b = e.appendTo(b)
		_, err := bw.Write(b)
		b = b[:0]
		return err
	}
	for _, pid := range pids {
		meta := chromeEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: []pair{{"name", "client " + strconv.Itoa(pid)}}}
		if err := event(&meta); err != nil {
			return err
		}
		for tid, l := range Layers {
			if tracks[pid]&(1<<tid) == 0 {
				continue
			}
			meta = chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: []pair{{"name", l.String()}}}
			if err := event(&meta); err != nil {
				return err
			}
		}
	}
	var args []pair
	for _, s := range spans {
		args = t.chromeArgs(args[:0], s)
		e := chromeEvent{
			Name: t.Op(s),
			Cat:  s.Layer.String(),
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  int(s.Client),
			TID:  s.layerTID(),
			Args: args,
		}
		if err := event(&e); err != nil {
			return err
		}
	}
	b = append(b, `],"displayTimeUnit":"ms"}`+"\n"...)
	if _, err := bw.Write(b); err != nil {
		return err
	}
	return bw.Flush()
}

// layerTID is the Chrome track of s's layer: its index in Layers (0 for a
// layer outside the vocabulary).
func (s Span) layerTID() int {
	if !s.Layer.valid() {
		return 0
	}
	return int(s.Layer - LayerSyscall)
}
