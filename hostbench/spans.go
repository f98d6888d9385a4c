package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"

	"repro/internal/vfs"
	"repro/internal/workload"
)

// Host-time spans. The benchmark records them around its own calls into
// the simulator (the program itself is untouched): one span per workload
// phase, per artefact, per sweep and — through tracedOps — per simulated
// syscall. They are held in memory and written as JSONL when the run
// ends. Only the traced run has a spanLog; the untraced run's nil log
// makes pass.span a direct call.

// span is one timed interval of host work. Times are nanoseconds since
// the log was created; Parent is the ID of the enclosing span (0 for a
// root); spans of one pass share its Pass id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog collects spans on the single driver goroutine: the open-span
// stack gives parentage.
type spanLog struct {
	t0    time.Time
	spans []span
	stack []int // indices into spans of the open spans
	pass  int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (l *spanLog) begin(name string) int {
	parent := 0
	if n := len(l.stack); n > 0 {
		parent = l.spans[l.stack[n-1]].ID
	}
	i := len(l.spans)
	l.spans = append(l.spans, span{
		ID: i + 1, Parent: parent, Pass: l.pass, Name: name,
		Start: int64(time.Since(l.t0)),
	})
	l.stack = append(l.stack, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (l *spanLog) end(i int) {
	l.spans[i].End = int64(time.Since(l.t0))
	l.stack = l.stack[:len(l.stack)-1]
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of it its direct children cover. Children of one parent never
// overlap here (one goroutine), so that part is the sum of their
// durations.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// perPassTotals sums span durations by name within each pass and returns,
// per name, the list of per-pass totals in milliseconds.
func perPassTotals(spans []span) map[string][]float64 {
	byPass := map[string]map[int]time.Duration{}
	for _, s := range spans {
		m := byPass[s.Name]
		if m == nil {
			m = map[int]time.Duration{}
			byPass[s.Name] = m
		}
		m[s.Pass] += s.dur()
	}
	out := make(map[string][]float64, len(byPass))
	for name, m := range byPass {
		for _, d := range m {
			out[name] = append(out[name], float64(d)/1e6)
		}
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanSyscall names the span tracedOps records around every simulated
// syscall.
const spanSyscall = "testbed.syscall"

// tracedOps decorates a client's syscall surface so each simulated
// syscall is one host-time span under the workload phase that issued it.
type tracedOps struct {
	c   workload.Ops
	log *spanLog
}

func (t tracedOps) Mkdir(path string) error {
	s := t.log.begin(spanSyscall)
	err := t.c.Mkdir(path)
	t.log.end(s)
	return err
}

func (t tracedOps) Create(path string) (vfs.File, error) {
	s := t.log.begin(spanSyscall)
	f, err := t.c.Create(path)
	t.log.end(s)
	return f, err
}

func (t tracedOps) Open(path string) (vfs.File, error) {
	s := t.log.begin(spanSyscall)
	f, err := t.c.Open(path)
	t.log.end(s)
	return f, err
}

func (t tracedOps) Close(f vfs.File) error {
	s := t.log.begin(spanSyscall)
	err := t.c.Close(f)
	t.log.end(s)
	return err
}

func (t tracedOps) ReadFileAt(f vfs.File, off int64, buf []byte) (int, error) {
	s := t.log.begin(spanSyscall)
	n, err := t.c.ReadFileAt(f, off, buf)
	t.log.end(s)
	return n, err
}

func (t tracedOps) WriteFileAt(f vfs.File, off int64, data []byte) (int, error) {
	s := t.log.begin(spanSyscall)
	n, err := t.c.WriteFileAt(f, off, data)
	t.log.end(s)
	return n, err
}

func (t tracedOps) Unlink(path string) error {
	s := t.log.begin(spanSyscall)
	err := t.c.Unlink(path)
	t.log.end(s)
	return err
}

func (t tracedOps) WriteFile(path string, data []byte) error {
	s := t.log.begin(spanSyscall)
	err := t.c.WriteFile(path, data)
	t.log.end(s)
	return err
}
