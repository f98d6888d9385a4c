// Package tracing is the virtual-time distributed tracing subsystem: every
// traced operation yields a causally linked span tree covering each layer
// the op crossed — syscall surface, cache decision, RPC or iSCSI exchange,
// transport legs, link frames, bottleneck queues, CPU service and disk
// phases — in the simulation's own virtual clock. Where internal/metrics
// answers "how much" (counters over a window), tracing answers "why" (which
// layer a single slow op spent its nanoseconds in), mechanizing the
// packet-trace methodology Radkov et al. applied by hand in Sections 5/6.
//
// The tracer is sampling-aware (every op, every Nth, or only ops above a
// latency threshold) and strictly zero-cost when disabled: every method is
// safe on a nil *Tracer and allocates nothing, so instrumented layers call
// unconditionally. Span trees export as validated JSONL (jsonl.go, same
// conventions as docs/METRICS.md) or Chrome trace_event JSON loadable in
// Perfetto (chrome.go); CriticalPath (critpath.go) bills each nanosecond of
// an op's latency to exactly one layer. See docs/TRACING.md.
package tracing

import "time"

// Layer vocabulary: every span names the layer that did the work. The
// critical-path analyzer and repro trace group by these strings, and
// Span.Validate rejects anything outside the set.
const (
	LayerSyscall   = "syscall"    // testbed.Client syscall surface (root spans)
	LayerCache     = "cache"      // ext3 buffer-cache miss handling
	LayerLock      = "lock"       // lock/reservation exchanges + delegation recall waits
	LayerRPC       = "rpc"        // sunrpc exchange (slot waits, per-proc spans)
	LayerISCSI     = "iscsi"      // iSCSI command exchange (initiator or MC/S session)
	LayerUDP       = "udp"        // NFS datagram transport leg (incl. retransmit waits)
	LayerTCP       = "tcp"        // virtual-time or fluid TCP transport leg
	LayerLink      = "link"       // simnet frame/segment serialization + propagation
	LayerQueue     = "queue"      // shared-bottleneck (netqueue) occupancy
	LayerCPUClient = "cpu.client" // client CPU service
	LayerCPUServer = "cpu.server" // server CPU service
	LayerDisk      = "disk"       // simdisk RAID-5 phases
)

// Layers lists the vocabulary in display order (client to platter).
var Layers = []string{
	LayerSyscall, LayerCache, LayerLock, LayerRPC, LayerISCSI, LayerUDP,
	LayerTCP, LayerLink, LayerQueue, LayerCPUClient, LayerCPUServer,
	LayerDisk,
}

// validLayer is the O(1) membership check behind Span.Validate.
var validLayer = func() map[string]bool {
	m := make(map[string]bool, len(Layers))
	for _, l := range Layers {
		m[l] = true
	}
	return m
}()

// Span is one timed interval of work in one layer, causally linked to the
// span that caused it. IDs are dense and positive; a root span (one client
// operation) has Parent 0. Times are virtual nanoseconds from simulated
// boot, so identical runs yield identical spans.
type Span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Client int               `json:"client"`
	Layer  string            `json:"layer"`
	Op     string            `json:"op"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Tags   map[string]string `json:"tags,omitempty"`
}

// SpanRef is a handle to a span under construction. The zero value is
// invalid (returned by a nil or sampling-out tracer) and safe to pass back
// into End/SetTag. Refs are only meaningful until the enclosing root
// operation ends.
type SpanRef struct{ idx int32 }

// Valid reports whether the ref names a live span.
func (r SpanRef) Valid() bool { return r.idx != 0 }

// Config selects which operations a Tracer keeps.
type Config struct {
	// Every keeps one root operation in every Every (0 or 1 = every op).
	Every int64
	// Slow keeps only root operations at least this long — exemplar
	// tracing for tail hunting (0 = keep all sampled ops).
	Slow time.Duration
}

// Tracer records span trees for client operations in virtual time. One
// tracer is shared by every layer of a testbed or cluster: the simulation
// executes one operation's whole protocol path synchronously on one call
// stack, so a single span stack yields correct causal parentage. All
// methods are nil-safe; a nil *Tracer is the documented "tracing off"
// state and costs nothing (no allocations, enforced by benchmark).
type Tracer struct {
	cfg    Config
	spans  []Span // committed spans, dense IDs, parents precede children
	cur    []Span // tentative spans of the in-flight root op
	stack  []int  // indices into cur of the open Begin spans
	skip   int    // >0: inside a sampled-out root op (counts nesting)
	ops    int64  // root ops seen (sampling counter)
	nextID int64  // last committed span ID
	client int    // client id of the in-flight root op
}

// New returns a Tracer with the given sampling config.
func New(cfg Config) *Tracer { return &Tracer{cfg: cfg} }

// Enabled reports whether the tracer is currently recording (non-nil and
// not inside a sampled-out operation). Call sites use it to skip expensive
// tag formatting.
func (t *Tracer) Enabled() bool { return t != nil && t.skip == 0 }

// BeginOp opens the root span for one client operation — the only way a
// root is born. The client id tags every span of the resulting tree.
// Sampling decisions happen here: a sampled-out op traces nothing until
// its matching End. Inside an already-open operation it behaves as Begin.
func (t *Tracer) BeginOp(now time.Duration, layer, op string, client int) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if t.skip > 0 {
		t.skip++
		return SpanRef{}
	}
	if len(t.stack) > 0 {
		return t.Begin(now, layer, op)
	}
	t.client = client
	t.ops++
	if t.cfg.Every > 1 && (t.ops-1)%t.cfg.Every != 0 {
		t.skip = 1
		return SpanRef{}
	}
	t.cur = append(t.cur[:0], Span{Layer: layer, Op: op, Start: now})
	t.stack = append(t.stack, 0)
	return SpanRef{idx: 1}
}

// Begin opens a span at now, parented to the innermost open span, and
// returns its ref. Every Begin must be matched by an End (LIFO); for
// completed intervals or async completions use Record instead. Outside any
// open operation it records nothing (like Record): mount-time and
// background protocol activity never starts a trace of its own.
func (t *Tracer) Begin(now time.Duration, layer, op string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if t.skip > 0 {
		t.skip++
		return SpanRef{}
	}
	if len(t.stack) == 0 {
		return SpanRef{}
	}
	parent := t.stack[len(t.stack)-1] + 1
	t.cur = append(t.cur, Span{Parent: int64(parent), Layer: layer, Op: op, Start: now})
	idx := len(t.cur) - 1
	t.stack = append(t.stack, idx)
	return SpanRef{idx: int32(idx + 1)}
}

// End closes the span ref at now. Closing a root op commits (or, under
// slow-op sampling, discards) the whole tentative tree.
func (t *Tracer) End(ref SpanRef, now time.Duration) {
	if t == nil {
		return
	}
	if t.skip > 0 {
		t.skip--
		return
	}
	if !ref.Valid() {
		return
	}
	i := int(ref.idx) - 1
	t.cur[i].End = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
	if len(t.stack) == 0 {
		t.commit()
	}
}

// Record adds an already-completed span parented to the innermost open
// span, without touching the LIFO stack — the shape for synchronous leaf
// intervals (link frames, CPU service, disk phases) and for async or
// interleaved completions (MC/S pipes, read-ahead) where Begin/End nesting
// does not hold. Outside any open operation it records nothing.
func (t *Tracer) Record(start, end time.Duration, layer, op string) SpanRef {
	if t == nil || t.skip > 0 || len(t.stack) == 0 {
		return SpanRef{}
	}
	parent := t.stack[len(t.stack)-1] + 1
	t.cur = append(t.cur, Span{Parent: int64(parent), Layer: layer, Op: op, Start: start, End: end})
	return SpanRef{idx: int32(len(t.cur))}
}

// BeginDetached opens a span parented to the innermost open span without
// joining the LIFO stack — the covering span for pipelined work (MC/S
// sub-commands) whose interval outlives any one synchronous step and whose
// completions interleave out of issue order. Close it with EndDetached;
// while one synchronous slice of its work executes, bracket the slice with
// Enter/Exit so the spans that slice records nest under it. Outside any
// open operation it records nothing, like Record.
func (t *Tracer) BeginDetached(now time.Duration, layer, op string) SpanRef {
	if t == nil || t.skip > 0 || len(t.stack) == 0 {
		return SpanRef{}
	}
	parent := t.stack[len(t.stack)-1] + 1
	t.cur = append(t.cur, Span{Parent: int64(parent), Layer: layer, Op: op, Start: now})
	return SpanRef{idx: int32(len(t.cur))}
}

// EndDetached closes a detached span at now. Unlike End it never touches
// the LIFO stack or the sampling nesting counter, so it is safe to call
// from a different synchronous slice than the BeginDetached.
func (t *Tracer) EndDetached(ref SpanRef, now time.Duration) {
	if t == nil || !ref.Valid() {
		return
	}
	t.cur[int(ref.idx)-1].End = now
}

// Enter pushes a detached span onto the LIFO stack: spans recorded by the
// current synchronous slice of its work become its children. Every Enter
// must be matched by an Exit on the same ref within the same slice;
// Enter/Exit pairs nest like Begin/End.
func (t *Tracer) Enter(ref SpanRef) {
	if t == nil || !ref.Valid() {
		return
	}
	t.stack = append(t.stack, int(ref.idx)-1)
}

// Exit pops the span pushed by the matching Enter. The span stays open —
// only EndDetached closes it.
func (t *Tracer) Exit(ref SpanRef) {
	if t == nil || !ref.Valid() {
		return
	}
	if n := len(t.stack); n > 0 && t.stack[n-1] == int(ref.idx)-1 {
		t.stack = t.stack[:n-1]
	}
}

// SetTag attaches a key/value to a live span ref. Kept separate from
// Begin/Record so the disabled path never materializes tag arguments.
func (t *Tracer) SetTag(ref SpanRef, k, v string) {
	if t == nil || !ref.Valid() {
		return
	}
	s := &t.cur[int(ref.idx)-1]
	if s.Tags == nil {
		s.Tags = make(map[string]string)
	}
	s.Tags[k] = v
}

// commit moves the tentative tree into the committed stream, assigning
// dense IDs (parents precede children by construction) and stamping every
// span with the root's client id. Under slow-op sampling a root faster
// than the threshold is discarded instead.
func (t *Tracer) commit() {
	if len(t.cur) == 0 {
		return
	}
	root := t.cur[0]
	if t.cfg.Slow > 0 && root.End-root.Start < t.cfg.Slow {
		t.cur = t.cur[:0]
		return
	}
	if need := len(t.spans) + len(t.cur); need > cap(t.spans) {
		// Double into a new array, copying the stream once. Slices
		// Spans returned earlier keep the old array, which is never
		// written again.
		grown := make([]Span, len(t.spans), max(2*cap(t.spans), need))
		copy(grown, t.spans)
		t.spans = grown
	}
	base := t.nextID
	for i, s := range t.cur {
		if s.End < s.Start {
			// A detached span abandoned by an error path (its pipeline
			// died before EndDetached): close it empty so the stream
			// stays schema-valid.
			s.End = s.Start
		}
		s.ID = base + int64(i) + 1
		if s.Parent > 0 {
			s.Parent += base
		}
		s.Client = t.client
		t.spans = append(t.spans, s)
	}
	t.nextID += int64(len(t.cur))
	t.cur = t.cur[:0]
}

// Spans returns the committed spans (do not mutate). Valid any time; the
// in-flight operation's tentative spans are not included. Later commits
// and Reset never change the spans of a slice already returned.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Reset discards all committed and tentative state, including the ID and
// sampling counters — used to separate an unmeasured setup phase from the
// measured window.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.spans = nil
	t.cur = t.cur[:0]
	t.stack = t.stack[:0]
	t.skip = 0
	t.ops = 0
	t.nextID = 0
}
